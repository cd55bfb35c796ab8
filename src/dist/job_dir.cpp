#include "dist/job_dir.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "tensor/serialize.h"

namespace fsa::dist {

namespace fs = std::filesystem;

void write_json_atomic(const std::string& path, const eval::Json& j) {
  // Concurrent writers of the same path (two coordinators resuming one job
  // on shared storage) each stage their own temp file, and the final
  // renames are last-one-wins with both contents complete — a reader can
  // never observe a partial document.
  io::write_file_atomic(path, [&](std::ostream& os) { os << j.dump(2) << "\n"; });
}

eval::Json read_json_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("dist: cannot read " + path);
  std::ostringstream text;
  text << is.rdbuf();
  try {
    return eval::Json::parse(text.str());
  } catch (const std::exception& e) {
    throw std::runtime_error("dist: " + path + ": " + e.what());
  }
}

// ---- JobDir ------------------------------------------------------------------

JobDir::JobDir(std::string path, std::string kind, int shards)
    : path_(std::move(path)), kind_(std::move(kind)), shards_(shards) {}

JobDir JobDir::create(const std::string& path, const std::string& kind, int shards,
                      const eval::Json& manifest) {
  if (kind != "arena" && kind != "campaign" && kind != "sweep")
    throw std::invalid_argument("JobDir: unknown job kind \"" + kind +
                                "\" (known: arena, campaign, sweep)");
  if (shards < 1)
    throw std::invalid_argument("JobDir: shard count must be >= 1, got " +
                                std::to_string(shards));
  if (exists(path))
    throw std::invalid_argument("JobDir: " + path +
                                " already holds a job (open it to resume, or remove it)");
  fs::create_directories(fs::path(path) / "results");
  fs::create_directories(fs::path(path) / "logs");
  fs::create_directories(fs::path(path) / "leases");
  JobDir job(path, kind, shards);
  write_json_atomic(job.manifest_path(), manifest);
  eval::Json spec = eval::Json::object();
  spec.set("kind", eval::Json::string(kind));
  spec.set("shards", eval::Json::number(static_cast<std::int64_t>(shards)));
  // job.json is written LAST: its presence marks a fully laid-out job.
  write_json_atomic((fs::path(path) / "job.json").string(), spec);
  return job;
}

JobDir JobDir::open(const std::string& path) {
  const eval::Json spec = read_json_file((fs::path(path) / "job.json").string());
  const std::string kind = spec.get_string("kind", "");
  const int shards = static_cast<int>(spec.get_int("shards", 0));
  if ((kind != "arena" && kind != "campaign" && kind != "sweep") || shards < 1)
    throw std::runtime_error("JobDir: " + path + "/job.json is malformed");
  JobDir job(path, kind, shards);
  // Resume hygiene: crashed writers leave `*.tmp.<pid>.<n>` staging files
  // behind; clear the stale ones so the directory stays clean.
  job.sweep_orphaned_tmp();
  return job;
}

bool JobDir::exists(const std::string& path) {
  std::error_code ec;
  return fs::is_regular_file(fs::path(path) / "job.json", ec);
}

std::string JobDir::manifest_path() const { return (fs::path(path_) / "manifest.json").string(); }

std::string JobDir::reduced_path() const { return (fs::path(path_) / "reduced.json").string(); }

namespace {

std::string shard_file(int shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard_%05d", shard);
  return buf;
}

}  // namespace

std::string JobDir::result_path(int shard) const {
  check_shard(shard);
  return (fs::path(path_) / "results" / (shard_file(shard) + ".json")).string();
}

std::string JobDir::log_path(int shard) const {
  check_shard(shard);
  return (fs::path(path_) / "logs" / (shard_file(shard) + ".log")).string();
}

std::string JobDir::lease_path(int shard) const {
  check_shard(shard);
  return (fs::path(path_) / "leases" / (shard_file(shard) + ".lease")).string();
}

std::string JobDir::telemetry_sidecar_path(int shard) const {
  check_shard(shard);
  return (fs::path(path_) / "results" / (shard_file(shard) + ".telemetry.json")).string();
}

std::string JobDir::telemetry_path() const { return (fs::path(path_) / "telemetry.json").string(); }

eval::Json JobDir::manifest() const { return read_json_file(manifest_path()); }

bool JobDir::has_result(int shard) const {
  std::error_code ec;
  return fs::is_regular_file(result_path(shard), ec);
}

eval::Json JobDir::result(int shard) const { return read_json_file(result_path(shard)); }

void JobDir::write_result(int shard, const eval::Json& j) const {
  write_json_atomic(result_path(shard), j);
}

void JobDir::write_reduced(const eval::Json& j) const { write_json_atomic(reduced_path(), j); }

void JobDir::quarantine_result(int shard) const {
  const std::string path = result_path(shard);
  std::error_code ec;
  fs::remove(path + ".bad", ec);  // replace any earlier quarantine
  fs::rename(path, path + ".bad", ec);
  if (ec)
    throw std::runtime_error("JobDir: cannot quarantine " + path + ": " + ec.message());
}

std::vector<int> JobDir::validate_results() const {
  std::vector<int> quarantined;
  for (int s = 0; s < shards_; ++s) {
    if (!has_result(s)) continue;
    try {
      (void)read_json_file(result_path(s));
    } catch (const std::exception& e) {
      quarantine_result(s);
      std::fprintf(stderr, "[dist] %s: quarantined corrupt result for shard %d -> %s.bad (%s)\n",
                   path_.c_str(), s, result_path(s).c_str(), e.what());
      quarantined.push_back(s);
    }
  }
  return quarantined;
}

void JobDir::sweep_orphaned_tmp(std::chrono::seconds min_age) const {
  const auto cutoff = fs::file_time_type::clock::now() - min_age;
  for (const fs::path dir : {fs::path(path_), fs::path(path_) / "results", fs::path(path_) / "leases"}) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (!entry.is_regular_file(ec)) continue;
      // write_json_atomic stages as `<name>.tmp.<pid>.<n>`; reclaim leaves
      // `<name>.reclaim.<owner>` only transiently, sweep those too.
      const std::string name = entry.path().filename().string();
      if (name.find(".tmp.") == std::string::npos && name.find(".reclaim.") == std::string::npos)
        continue;
      const auto mtime = entry.last_write_time(ec);
      if (ec || mtime > cutoff) continue;  // possibly a live writer — leave it
      fs::remove(entry.path(), ec);
    }
  }
}

JobStatus JobDir::status() const {
  JobStatus st;
  st.shards = shards_;
  for (int s = 0; s < shards_; ++s) (has_result(s) ? st.done : st.missing).push_back(s);
  std::error_code ec;
  st.reduced = fs::is_regular_file(reduced_path(), ec);
  return st;
}

int merge_job_telemetry(const JobDir& job) {
  eval::Json merged;
  int folded = 0;
  for (int s = 0; s < job.shards(); ++s) {
    const std::string sidecar = job.telemetry_sidecar_path(s);
    std::error_code ec;
    if (!fs::is_regular_file(sidecar, ec)) continue;
    eval::Json doc;
    try {
      doc = read_json_file(sidecar);
    } catch (const std::exception&) {
      continue;  // telemetry is best-effort: a torn sidecar never fails a job
    }
    merged = folded == 0 ? std::move(doc) : obs::merge_telemetry(merged, doc);
    ++folded;
  }
  if (folded > 0) write_json_atomic(job.telemetry_path(), merged);
  return folded;
}

void JobDir::check_shard(int shard) const {
  if (shard < 0 || shard >= shards_)
    throw std::out_of_range("JobDir: shard index " + std::to_string(shard) +
                            " out of range [0, " + std::to_string(shards_) + ")");
}

}  // namespace fsa::dist

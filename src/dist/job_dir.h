// job_dir.h — the file-based coordination protocol for multi-process work.
//
// A job is a directory; the directory IS the protocol. Place it on shared
// storage and any process that can read it can take part:
//
//   <job>/
//     job.json                 {"kind": "campaign"|"sweep", "shards": K}
//     manifest.json            kind-specific, self-contained work spec
//     results/shard_00000.json one per completed shard, written atomically
//     results/shard_00000.telemetry.json
//                              optional metrics sidecar (FSA_METRICS on)
//     logs/shard_00000.log     worker stdout+stderr, one per shard attempt
//     leases/shard_00000.lease live shard claims (`dist serve`, see lease.h)
//     reduced.json             the zero-drift reduction over all results
//     telemetry.json           merged sidecars — always OUTSIDE reduced.json
//
// Workers never coordinate with each other: shard i's work is a pure
// function of manifest.json and i (the planner assigned every seed and
// attribution before slicing — see campaign.h), and a result file either
// exists completely or not at all (tmp + rename). Status, resume, and
// reduce therefore need nothing but directory listings: a killed campaign
// is re-run by spawning workers for the shards whose results are missing.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "eval/json.h"

namespace fsa::dist {

/// Write `j` to `path` atomically: dump to `path.tmp`, then rename. The
/// parent directory is created. Readers never observe a partial file.
void write_json_atomic(const std::string& path, const eval::Json& j);

/// Parse the JSON document stored at `path` (throws with the path on a
/// missing or malformed file).
eval::Json read_json_file(const std::string& path);

/// Snapshot of a job's progress, from directory listings alone.
struct JobStatus {
  int shards = 0;
  std::vector<int> done;     ///< shard indices with a result file
  std::vector<int> missing;  ///< shard indices without one
  bool reduced = false;      ///< reduced.json present
};

class JobDir {
 public:
  /// Lay out a fresh job directory: job.json, manifest.json, results/ and
  /// logs/. Throws if `path` already holds a job (open() it instead — a
  /// job dir is append-only state, never silently clobbered).
  static JobDir create(const std::string& path, const std::string& kind, int shards,
                       const eval::Json& manifest);

  /// Attach to an existing job directory (throws if job.json is absent or
  /// malformed).
  static JobDir open(const std::string& path);

  /// True if `path` holds a job (a readable job.json).
  static bool exists(const std::string& path);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const std::string& kind() const { return kind_; }
  [[nodiscard]] int shards() const { return shards_; }

  [[nodiscard]] std::string manifest_path() const;
  [[nodiscard]] std::string result_path(int shard) const;
  [[nodiscard]] std::string log_path(int shard) const;
  [[nodiscard]] std::string lease_path(int shard) const;
  [[nodiscard]] std::string reduced_path() const;
  /// Optional per-shard metrics sidecar (a worker writes its registry
  /// snapshot here when FSA_METRICS is on). Never part of the reduction.
  [[nodiscard]] std::string telemetry_sidecar_path(int shard) const;
  /// Job-level merge target for the sidecars: `<job>/telemetry.json`.
  [[nodiscard]] std::string telemetry_path() const;

  [[nodiscard]] eval::Json manifest() const;
  [[nodiscard]] bool has_result(int shard) const;
  [[nodiscard]] eval::Json result(int shard) const;
  void write_result(int shard, const eval::Json& j) const;
  void write_reduced(const eval::Json& j) const;
  [[nodiscard]] JobStatus status() const;

  /// Quarantine a corrupt or truncated result: rename it to
  /// `shard_NNNNN.json.bad` (replacing any earlier quarantine) so the
  /// shard re-enters the missing set and `dist run`/`serve` re-execute
  /// it. The worker path can't produce such a file (results are written
  /// tmp+rename), but a write outside the atomic path — a crashed editor,
  /// fs corruption, a partial copy — must not abort the whole job.
  void quarantine_result(int shard) const;

  /// Parse-check every present result file and quarantine the corrupt
  /// ones. Returns the quarantined shard indices (usually empty). Run
  /// before status()/reduce on resume so corrupt results count as missing
  /// instead of poisoning the reduction.
  std::vector<int> validate_results() const;

  /// Remove orphaned `*.tmp.<pid>.<n>` staging files (write_json_atomic
  /// leftovers from crashed writers) older than `min_age` from the job's
  /// root, results/ and leases/ directories. The age guard keeps a live
  /// writer's in-flight tmp safe; open() sweeps automatically.
  void sweep_orphaned_tmp(std::chrono::seconds min_age = std::chrono::seconds(10)) const;

 private:
  JobDir(std::string path, std::string kind, int shards);
  void check_shard(int shard) const;  // throws on out-of-range indices

  std::string path_;
  std::string kind_;
  int shards_ = 0;
};

/// Merge every present per-shard telemetry sidecar into
/// `<job>/telemetry.json` (counters add, gauges take the max — see
/// obs::merge_telemetry) and return how many sidecars were folded in.
/// Telemetry is best-effort by design: missing or corrupt sidecars are
/// skipped, zero sidecars writes nothing, and reduced.json is never
/// touched — it must stay byte-identical with telemetry on or off.
int merge_job_telemetry(const JobDir& job);

}  // namespace fsa::dist

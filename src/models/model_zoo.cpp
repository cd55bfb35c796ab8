#include "models/model_zoo.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>

#include "data/synth_digits.h"
#include "data/synth_objects.h"
#include "models/cw_net.h"
#include "models/fingerprint.h"
#include "optim/adam.h"
#include "optim/trainer.h"
#include "tensor/serialize.h"

namespace fsa::models {

namespace {

// The memo is three text lines:
//   fsa-zoo-accuracy 1
//   fingerprint <16 hex digits>
//   test_accuracy <%.17g>
// %.17g round-trips the double exactly, so a hit returns the same bits the
// full pass would.
std::string memo_header(std::uint64_t fingerprint) {
  char text[80];
  std::snprintf(text, sizeof(text), "fsa-zoo-accuracy 1\nfingerprint %016llx\ntest_accuracy ",
                static_cast<unsigned long long>(fingerprint));
  return text;
}

std::optional<double> read_accuracy_memo(const std::string& path, std::uint64_t fingerprint) {
  std::string text;
  try {
    std::ifstream is(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(is), {});
  } catch (const std::exception&) {
    return std::nullopt;  // e.g. a directory where the memo should be
  }
  const std::string header = memo_header(fingerprint);
  // Another version or fingerprint, or a file cut before its final newline.
  if (!text.starts_with(header) || !text.ends_with('\n')) return std::nullopt;
  const char* number = text.c_str() + header.size();
  char* end = nullptr;
  const double acc = std::strtod(number, &end);
  if (end == number || end != text.c_str() + text.size() - 1 || !(acc >= 0.0 && acc <= 1.0))
    return std::nullopt;
  return acc;
}

/// Best effort: a memo that cannot be written costs the next process an
/// accuracy pass, nothing more.
void write_accuracy_memo(const std::string& path, std::uint64_t fingerprint, double accuracy) {
  char number[32];
  std::snprintf(number, sizeof(number), "%.17g\n", accuracy);
  try {
    io::write_file_atomic(path, [&](std::ostream& os) { os << memo_header(fingerprint) << number; });
  } catch (const std::exception&) {
    // Read-only or full cache directory: keep going without the memo.
  }
}

}  // namespace

std::string default_cache_dir() {
  if (const char* env = std::getenv("FSA_CACHE_DIR"); env != nullptr && *env != '\0') return env;
  return ".fsa_cache";
}

ModelZoo::ModelZoo(ZooConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.cache_dir.empty()) cfg_.cache_dir = default_cache_dir();
}

ZooModel& ModelZoo::digits() {
  if (!digits_) digits_ = std::make_unique<ZooModel>(build("digits"));
  return *digits_;
}

ZooModel& ModelZoo::objects() {
  if (!objects_) objects_ = std::make_unique<ZooModel>(build("objects"));
  return *objects_;
}

data::Dataset ModelZoo::synth(const std::string& name, std::int64_t count,
                             std::uint64_t role) const {
  // Three disjoint deterministic seeds per dataset: 1 train, 2 test, 3 pool.
  if (name == "digits") {
    data::SynthDigitsConfig dc;
    dc.count = count;
    dc.seed = 100 + role;
    return data::make_synth_digits(dc);
  }
  data::SynthObjectsConfig oc;
  oc.count = count;
  oc.seed = 200 + role;
  return data::make_synth_objects(oc);
}

data::Dataset ModelZoo::train_set(const std::string& name) const {
  return synth(name, cfg_.train_count, 1);
}

ZooModel ModelZoo::build(const std::string& name) {
  const bool is_digits = name == "digits";
  ZooModel m;
  m.name = name;
  m.test = synth(name, cfg_.test_count, 2);
  m.attack_pool = synth(name, cfg_.pool_count, 3);

  // --- model ----------------------------------------------------------------
  CwNetConfig nc;
  nc.in_channels = is_digits ? 1 : 3;
  nc.side = is_digits ? 28 : 32;
  nc.init_seed = is_digits ? 42 : 43;
  m.net = make_cw_net(nc);

  const std::string param_path = cfg_.cache_dir + "/" + name + "_cwnet.bin";
  if (io::file_exists(param_path)) {
    m.net.load_params(param_path);
  } else {
    if (cfg_.verbose) std::printf("[zoo] training %s model (cached at %s)...\n", name.c_str(), param_path.c_str());
    m.train = train_set(name);
    optim::Adam opt(m.net.params(), 1e-3);
    optim::Trainer trainer(m.net, opt);
    optim::TrainConfig tc;
    tc.epochs = is_digits ? cfg_.digits_epochs : cfg_.objects_epochs;
    tc.batch_size = 32;
    tc.shuffle_seed = is_digits ? 7 : 8;
    tc.lr_schedule = [](std::int64_t epoch) { return 1e-3 * std::pow(0.7, static_cast<double>(epoch)); };
    if (cfg_.verbose)
      tc.on_epoch = [&](const optim::EpochStats& s) {
        std::printf("[zoo]   epoch %lld: loss %.4f, train acc %.4f\n",
                    static_cast<long long>(s.epoch), s.train_loss, s.train_accuracy);
      };
    trainer.fit(m.train, tc);
    m.net.save_params(param_path);
  }

  // --- test accuracy, memoized by the fingerprint of weights + test set -----
  const std::uint64_t fp =
      Fingerprint().params(m.net.params()).tensor(m.test.images()).labels(m.test.labels()).value();
  const std::string memo_path = cfg_.cache_dir + "/" + name + "_cwnet.acc";
  if (const auto memo = read_accuracy_memo(memo_path, fp)) {
    m.test_accuracy = *memo;
  } else {
    m.test_accuracy = optim::Trainer::accuracy(m.net, m.test);
    write_accuracy_memo(memo_path, fp, m.test_accuracy);
  }
  if (cfg_.verbose)
    std::printf("[zoo] %s model ready: test accuracy %.4f\n", name.c_str(), m.test_accuracy);
  return m;
}

}  // namespace fsa::models

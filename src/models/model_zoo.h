// model_zoo.h — train-once, cache-forever models for the experiments.
//
// Every bench/example needs the same two trained networks (the paper's
// MNIST and CIFAR stand-ins). Training them takes minutes on one core, so
// the zoo persists them under a cache directory (default ".fsa_cache" next
// to the current working directory, overridable with the FSA_CACHE_DIR
// environment variable) and a later process's startup is a load plus a
// fingerprint check. The cache holds, per model <name>:
//   <name>_cwnet.bin          — the trained parameters (tensor blob)
//   <name>_cwnet.acc          — the test-accuracy memo: a format version, the
//                               FNV-1a fingerprint of the parameters and the
//                               test set, and test_accuracy (%.17g). A
//                               missing, stale or malformed memo is a miss:
//                               the full-network pass runs and rewrites it.
//   <name>_cut<N>_{pool,test}.bin — conv-prefix features at cut N plus the
//                               fingerprint of the prefix weights and images
//                               they came from (models::cached_features)
// Every file is written to a temp name and renamed into place.
//
// Three disjoint image sets are defined per dataset, all deterministic:
//   train       — used only to fit the model; synthesized only when the
//                 zoo trains (ZooModel::train is empty after a load; use
//                 ModelZoo::train_set to rebuild it)
//   test        — the paper's "overall test accuracy" set (Table 4)
//   attack_pool — the adversary's own images (the paper's X = {x₁..x_R});
//                 the paper explicitly assumes the adversary does NOT know
//                 the train/test sets, so these come from a third seed.
#pragma once

#include <memory>
#include <string>

#include "data/dataset.h"
#include "nn/sequential.h"

namespace fsa::models {

struct ZooModel {
  std::string name;
  nn::Sequential net;
  data::Dataset train;  ///< empty unless this process trained the model
  data::Dataset test;
  data::Dataset attack_pool;
  double test_accuracy = 0.0;

  ZooModel() = default;
  ZooModel(const ZooModel&) = delete;
  ZooModel& operator=(const ZooModel&) = delete;
  ZooModel(ZooModel&&) = default;
  ZooModel& operator=(ZooModel&&) = default;
};

struct ZooConfig {
  std::string cache_dir;          ///< empty → $FSA_CACHE_DIR or ".fsa_cache"
  std::int64_t train_count = 6000;
  std::int64_t test_count = 2000;
  std::int64_t pool_count = 1800;
  std::int64_t digits_epochs = 4;
  std::int64_t objects_epochs = 7;
  bool verbose = true;  ///< print one line per training epoch
};

class ModelZoo {
 public:
  explicit ModelZoo(ZooConfig cfg = {});

  /// The paper's MNIST model stand-in (28×28×1, ≈99% test accuracy).
  ZooModel& digits();

  /// The paper's CIFAR model stand-in (32×32×3, ≈80% test accuracy).
  ZooModel& objects();

  /// The train set the zoo fits `name` ("digits"/"objects") on: the same
  /// seed and count, synthesized on demand.
  [[nodiscard]] data::Dataset train_set(const std::string& name) const;

  [[nodiscard]] const std::string& cache_dir() const { return cfg_.cache_dir; }

 private:
  ZooModel build(const std::string& name);
  /// role 1 = train, 2 = test, 3 = attack pool (one seed each).
  [[nodiscard]] data::Dataset synth(const std::string& name, std::int64_t count,
                                    std::uint64_t role) const;

  ZooConfig cfg_;
  std::unique_ptr<ZooModel> digits_;
  std::unique_ptr<ZooModel> objects_;
};

/// Resolve the effective cache directory (helper shared with benches).
std::string default_cache_dir();

}  // namespace fsa::models

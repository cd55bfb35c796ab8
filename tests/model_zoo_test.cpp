// model_zoo_test.cpp — the train-once/cache-forever contract, exercised
// with a deliberately tiny configuration so it runs in seconds: weights
// reload bit-identically, the test-accuracy memo is bitwise the full pass
// and is keyed by a fingerprint of the weights and the test set, and the
// feature cache never serves features of other weights.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "models/feature_cache.h"
#include "models/model_zoo.h"
#include "optim/trainer.h"
#include "scratch_dir.h"

namespace fsa::models {
namespace {

using testutil::Scratch;

ZooConfig tiny_config(const std::string& dir) {
  ZooConfig cfg;
  cfg.cache_dir = dir;
  cfg.train_count = 120;
  cfg.test_count = 60;
  cfg.pool_count = 60;
  cfg.digits_epochs = 1;
  cfg.objects_epochs = 1;
  cfg.verbose = false;
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream text;
  text << is.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

TEST(ModelZoo, TrainsCachesAndReloadsIdentically) {
  const Scratch scratch("zoo_reload");
  const std::string dir = scratch.dir.string();
  double first_acc = 0.0;
  std::vector<Tensor> first_params;
  {
    ModelZoo zoo(tiny_config(dir));
    ZooModel& m = zoo.digits();
    EXPECT_EQ(m.name, "digits");
    EXPECT_EQ(m.train.size(), 120);
    EXPECT_EQ(m.test.size(), 60);
    EXPECT_EQ(m.attack_pool.size(), 60);
    first_acc = m.test_accuracy;
    for (auto* p : m.net.params()) first_params.push_back(p->value());
    EXPECT_TRUE(std::filesystem::exists(dir + "/digits_cwnet.bin"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/digits_cwnet.acc"));
  }
  {
    // Second zoo must LOAD (bit-identical parameters, same accuracy).
    ModelZoo zoo(tiny_config(dir));
    ZooModel& m = zoo.digits();
    EXPECT_EQ(m.test_accuracy, first_acc);
    const auto params = m.net.params();
    ASSERT_EQ(params.size(), first_params.size());
    for (std::size_t i = 0; i < params.size(); ++i)
      EXPECT_EQ(params[i]->value(), first_params[i]);
  }
}

TEST(ModelZoo, MemoizedAccuracyIsBitwiseTheFullPass) {
  const Scratch scratch("zoo_memo_exact");
  const std::string dir = scratch.dir.string();
  { ModelZoo zoo(tiny_config(dir)); (void)zoo.digits(); }
  ModelZoo zoo(tiny_config(dir));
  ZooModel& m = zoo.digits();
  EXPECT_EQ(m.test_accuracy, optim::Trainer::accuracy(m.net, m.test));
}

TEST(ModelZoo, MatchingMemoIsServedWithoutThePass) {
  // A memo whose fingerprint matches is trusted as is: startup reads it
  // instead of running the accuracy pass.
  const Scratch scratch("zoo_memo_hit");
  const std::string dir = scratch.dir.string();
  { ModelZoo zoo(tiny_config(dir)); (void)zoo.digits(); }
  const std::string memo = dir + "/digits_cwnet.acc";
  std::string text = read_file(memo);
  const auto at = text.find("test_accuracy ");
  ASSERT_NE(at, std::string::npos);
  text = text.substr(0, at) + "test_accuracy 0.125\n";
  write_file(memo, text);
  ModelZoo zoo(tiny_config(dir));
  EXPECT_EQ(zoo.digits().test_accuracy, 0.125);
}

TEST(ModelZoo, BadMemoIsRecomputedAndRewritten) {
  const Scratch scratch("zoo_memo_bad");
  const std::string dir = scratch.dir.string();
  double truth = 0.0;
  { ModelZoo zoo(tiny_config(dir)); truth = zoo.digits().test_accuracy; }
  const std::string memo = dir + "/digits_cwnet.acc";
  const std::string good = read_file(memo);

  // Wrong fingerprint (one hex digit flipped) with a bogus accuracy.
  std::string tampered = good;
  const auto fp_at = tampered.find("fingerprint ") + std::string("fingerprint ").size();
  tampered[fp_at] = tampered[fp_at] == '0' ? '1' : '0';
  tampered = tampered.substr(0, tampered.find("test_accuracy ")) + "test_accuracy 0.125\n";

  const std::vector<std::pair<std::string, std::string>> cases = {
      {"wrong fingerprint", tampered},
      {"truncated", good.substr(0, good.size() - 3)},
      {"garbage", "\x01\x02 not a memo \xff\n"},
      {"empty", ""},
      {"future version", "fsa-zoo-accuracy 99" + good.substr(good.find('\n'))},
  };
  for (const auto& [what, bytes] : cases) {
    SCOPED_TRACE(what);
    write_file(memo, bytes);
    ModelZoo zoo(tiny_config(dir));
    double acc = -1.0;
    EXPECT_NO_THROW(acc = zoo.digits().test_accuracy);
    EXPECT_EQ(acc, truth);
    EXPECT_EQ(read_file(memo), good);
  }
}

TEST(ModelZoo, UnwritableMemoIsNotAnError) {
  const Scratch scratch("zoo_memo_unwritable");
  const std::string dir = scratch.dir.string();
  double truth = 0.0;
  { ModelZoo zoo(tiny_config(dir)); truth = zoo.digits().test_accuracy; }
  // A directory where the memo file should be: every write fails.
  const std::string memo = dir + "/digits_cwnet.acc";
  std::filesystem::remove(memo);
  std::filesystem::create_directories(memo + "/blocked");
  ModelZoo zoo(tiny_config(dir));
  double acc = -1.0;
  EXPECT_NO_THROW(acc = zoo.digits().test_accuracy);
  EXPECT_EQ(acc, truth);
}

TEST(ModelZoo, NewWeightsChangeAccuracyAndFeatures) {
  const Scratch scratch("zoo_new_weights");
  const std::string dir = scratch.dir.string();
  const std::string feature_path = dir + "/digits_cut_fc1_test.bin";
  double first_acc = 0.0;
  Tensor first_features;
  {
    ModelZoo zoo(tiny_config(dir));
    ZooModel& m = zoo.digits();
    first_acc = m.test_accuracy;
    const std::size_t cut = m.net.index_of("fc1");
    first_features = cached_features(m.net, cut, m.test.images(), feature_path);
    // Overwrite the weights blob with different weights (all negated).
    for (auto* p : m.net.params())
      for (auto& v : p->value().span()) v = -v;
    m.net.save_params(dir + "/digits_cwnet.bin");
  }
  ModelZoo zoo(tiny_config(dir));
  ZooModel& m = zoo.digits();
  EXPECT_NE(m.test_accuracy, first_acc);
  EXPECT_EQ(m.test_accuracy, optim::Trainer::accuracy(m.net, m.test));
  const std::size_t cut = m.net.index_of("fc1");
  const Tensor features = cached_features(m.net, cut, m.test.images(), feature_path);
  EXPECT_NE(features, first_features);
  EXPECT_EQ(features, compute_features(m.net, cut, m.test.images()));
}

TEST(ModelZoo, CacheHitLeavesTrainSetEmpty) {
  const Scratch scratch("zoo_lazy_train");
  const std::string dir = scratch.dir.string();
  Tensor trained_on;
  {
    ModelZoo zoo(tiny_config(dir));
    ZooModel& m = zoo.digits();
    ASSERT_EQ(m.train.size(), 120);
    trained_on = m.train.images();
  }
  ModelZoo zoo(tiny_config(dir));
  EXPECT_EQ(zoo.digits().train.size(), 0);
  // The helper rebuilds the exact set the model was trained on.
  const data::Dataset train = zoo.train_set("digits");
  EXPECT_EQ(train.size(), 120);
  EXPECT_EQ(train.images(), trained_on);
}

TEST(ModelZoo, DatasetsAreDisjointAcrossRoles) {
  const Scratch scratch("zoo_disjoint");
  ModelZoo zoo(tiny_config(scratch.dir.string()));
  ZooModel& m = zoo.digits();
  const data::Dataset train = zoo.train_set("digits");
  // Different seeds → the three image sets must differ.
  EXPECT_NE(train.images(), m.test.images().slice0(0, m.test.size()).reshape(
                                m.test.images().shape()));
  EXPECT_NE(m.test.images(), m.attack_pool.images());
}

TEST(ModelZoo, SameInstanceIsMemoized) {
  const Scratch scratch("zoo_same_instance");
  ModelZoo zoo(tiny_config(scratch.dir.string()));
  ZooModel& a = zoo.digits();
  ZooModel& b = zoo.digits();
  EXPECT_EQ(&a, &b);
}

TEST(DefaultCacheDir, HonorsEnvironment) {
  // Without the env var → the documented default.
  unsetenv("FSA_CACHE_DIR");
  EXPECT_EQ(default_cache_dir(), ".fsa_cache");
  setenv("FSA_CACHE_DIR", "/tmp/fsa_custom_cache", 1);
  EXPECT_EQ(default_cache_dir(), "/tmp/fsa_custom_cache");
  unsetenv("FSA_CACHE_DIR");
}

}  // namespace
}  // namespace fsa::models

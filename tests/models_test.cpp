// models_test.cpp — the C&W architecture and the feature cache.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "models/cw_net.h"
#include "models/feature_cache.h"
#include "scratch_dir.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "test_util.h"

namespace fsa::models {
namespace {

TEST(CwNet, Fc1InputWidthMatchesGeometry) {
  CwNetConfig mnist;
  EXPECT_EQ(cw_fc1_inputs(mnist), 1024);  // 64·4·4 for 28×28
  CwNetConfig cifar;
  cifar.in_channels = 3;
  cifar.side = 32;
  EXPECT_EQ(cw_fc1_inputs(cifar), 1600);  // 64·5·5 for 32×32
}

TEST(CwNet, OutputShapeIsLogits) {
  CwNetConfig cfg;
  nn::Sequential net = make_cw_net(cfg);
  EXPECT_EQ(net.output_shape(Shape({3, 1, 28, 28})), Shape({3, 10}));
}

TEST(CwNet, LayerNamesAreStable) {
  CwNetConfig cfg;
  nn::Sequential net = make_cw_net(cfg);
  EXPECT_NO_THROW(net.index_of("conv1"));
  EXPECT_NO_THROW(net.index_of("pool2"));
  EXPECT_NO_THROW(net.index_of("fc1"));
  EXPECT_NO_THROW(net.index_of("fc3"));
  EXPECT_EQ(net.index_of("fc3"), net.size() - 1);
}

TEST(CwNet, TotalParameterCount) {
  // conv1: 1·3·3·32+32; conv2: 32·3·3·32+32; conv3: 32·3·3·64+64;
  // conv4: 64·3·3·64+64; fc1: 1024·200+200; fc2: 200·200+200; fc3: 200·10+10.
  CwNetConfig cfg;
  nn::Sequential net = make_cw_net(cfg);
  const std::int64_t expected = (288 + 32) + (9216 + 32) + (18432 + 64) + (36864 + 64) +
                                205000 + 40200 + 2010;
  EXPECT_EQ(net.param_count(), expected);
}

TEST(CwNet, ForwardRunsOnBothGeometries) {
  CwNetConfig mnist;
  nn::Sequential m = make_cw_net(mnist);
  Rng rng(1);
  EXPECT_EQ(m.forward(Tensor::randn(Shape({2, 1, 28, 28}), rng)).shape(), Shape({2, 10}));
  CwNetConfig cifar;
  cifar.in_channels = 3;
  cifar.side = 32;
  cifar.init_seed = 9;
  nn::Sequential c = make_cw_net(cifar);
  EXPECT_EQ(c.forward(Tensor::randn(Shape({2, 3, 32, 32}), rng)).shape(), Shape({2, 10}));
}

TEST(FeatureCache, CutPlusHeadEqualsFullForward) {
  nn::Sequential net = testutil::make_blob_net(7);
  Rng rng(2);
  const Tensor images = Tensor::randn(Shape({5, 1, 1, testutil::kBlobDim}), rng);
  const Tensor full = net.forward(images);
  const std::size_t cut = net.index_of("fc2");
  const Tensor feats = compute_features(net, cut, images, /*batch_size=*/2);
  const Tensor resumed = net.forward_from(cut, feats);
  ASSERT_EQ(resumed.shape(), full.shape());
  for (std::size_t i = 0; i < full.size(); ++i) EXPECT_NEAR(resumed[i], full[i], 1e-5f);
}

TEST(FeatureCache, CutZeroReturnsImagesVerbatim) {
  // A cut at layer 0 means the whole network is the head: the "features"
  // are the raw images in their natural batch-first shape.
  nn::Sequential net = testutil::make_blob_net(8);
  Rng rng(3);
  const Tensor images = Tensor::randn(Shape({4, 1, 1, testutil::kBlobDim}), rng);
  const Tensor feats = compute_features(net, 0, images);
  EXPECT_EQ(feats, images);
}

TEST(FeatureCache, DiskCacheRoundTrip) {
  nn::Sequential net = testutil::make_blob_net(9);
  Rng rng(4);
  const Tensor images = Tensor::randn(Shape({6, 1, 1, testutil::kBlobDim}), rng);
  const testutil::Scratch scratch("fsa_featcache_roundtrip");
  const std::string path = scratch.sub("features.bin");
  const std::size_t cut = net.index_of("fc2");
  const Tensor first = cached_features(net, cut, images, path);
  EXPECT_TRUE(std::filesystem::exists(path));
  const Tensor second = cached_features(net, cut, images, path);
  EXPECT_EQ(first, second);
}

TEST(FeatureCache, StaleEntryIsRecomputed) {
  // Features are keyed by the prefix weights and the images: an entry built
  // from other weights or other images is never served.
  nn::Sequential net = testutil::make_blob_net(9);
  Rng rng(4);
  const Tensor images = Tensor::randn(Shape({6, 1, 1, testutil::kBlobDim}), rng);
  const testutil::Scratch scratch("fsa_featcache_stale");
  const std::string path = scratch.sub("features.bin");
  const std::size_t cut = net.index_of("fc2");
  const Tensor first = cached_features(net, cut, images, path);

  nn::Sequential retrained = testutil::make_blob_net(10);
  EXPECT_EQ(cached_features(retrained, cut, images, path),
            compute_features(retrained, cut, images));
  EXPECT_NE(compute_features(retrained, cut, images), first);

  const Tensor other_images = Tensor::randn(Shape({6, 1, 1, testutil::kBlobDim}), rng);
  EXPECT_EQ(cached_features(retrained, cut, other_images, path),
            compute_features(retrained, cut, other_images));

  // Parameters at or after the cut are not in the key: changing the head
  // keeps the entry valid.
  const std::uint64_t key = features_fingerprint(retrained, cut, other_images);
  retrained.layer(cut).params()[0]->value()[0] += 1.0f;
  EXPECT_EQ(features_fingerprint(retrained, cut, other_images), key);
}

TEST(FeatureCache, UnreadableEntryIsAMiss) {
  nn::Sequential net = testutil::make_blob_net(9);
  Rng rng(4);
  const Tensor images = Tensor::randn(Shape({6, 1, 1, testutil::kBlobDim}), rng);
  const std::size_t cut = net.index_of("fc2");
  const Tensor truth = compute_features(net, cut, images);
  const testutil::Scratch scratch("fsa_featcache_bad");
  const std::string path = scratch.sub("features.bin");
  // A features file without a key (the older one-tensor layout) is a miss.
  io::save_tensors(path, {Tensor::zeros(truth.shape())});
  EXPECT_EQ(cached_features(net, cut, images, path), truth);
  std::ifstream written(path, std::ios::binary);
  const std::string valid(std::istreambuf_iterator<char>(written), {});
  // So are a file cut short and bytes that are not a tensor list at all.
  for (const std::string& bytes :
       {valid.substr(0, valid.size() / 2), std::string("garbage, not a tensor list")}) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    Tensor feats;
    EXPECT_NO_THROW(feats = cached_features(net, cut, images, path));
    EXPECT_EQ(feats, truth);
    std::ifstream is(path, std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(is), {}), valid);
  }
}

TEST(FeatureCache, HeadPredictionsMatchFullArgmax) {
  nn::Sequential net = testutil::make_blob_net(10);
  Rng rng(5);
  const Tensor images = Tensor::randn(Shape({8, 1, 1, testutil::kBlobDim}), rng);
  const std::size_t cut = net.index_of("fc2");
  const Tensor feats = compute_features(net, cut, images);
  const auto head = head_predictions(net, cut, feats);
  const auto full = ops::argmax_rows(net.forward(images));
  EXPECT_EQ(head, full);
}

TEST(FeatureCache, HeadAccuracyMatchesManual) {
  const data::Dataset ds = testutil::make_blobs(100, 6);
  nn::Sequential net = testutil::make_blob_net(11);
  const std::size_t cut = net.index_of("fc2");
  const Tensor feats = compute_features(net, cut, ds.images());
  const double acc = head_accuracy(net, cut, feats, ds.labels());
  const auto preds = head_predictions(net, cut, feats);
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i)
    if (preds[i] == ds.labels()[i]) ++correct;
  EXPECT_NEAR(acc, static_cast<double>(correct) / 100.0, 1e-12);
}

TEST(FeatureCache, LabelMismatchThrows) {
  nn::Sequential net = testutil::make_blob_net(12);
  Rng rng(7);
  const Tensor images = Tensor::randn(Shape({4, 1, 1, testutil::kBlobDim}), rng);
  const Tensor feats = compute_features(net, net.index_of("fc2"), images);
  EXPECT_THROW(head_accuracy(net, net.index_of("fc2"), feats, {0, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace fsa::models

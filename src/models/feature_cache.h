// feature_cache.h — cached activations at a network cut point.
//
// Every experiment in the paper modifies FC-layer parameters only, so the
// convolutional prefix of the network is a *fixed* feature extractor for
// the whole attack. Computing those features once per image set — and
// optionally persisting them to disk — turns each ADMM iteration into a
// forward/backward pass over a tiny dense head, which is the difference
// between seconds and hours for the R=1000 sweeps on one CPU core.
#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.h"
#include "nn/sequential.h"

namespace fsa::models {

/// Run layers [0, cut) over `images` in mini-batches; returns [N, F]
/// features (the input expected by layer `cut`).
Tensor compute_features(nn::Sequential& net, std::size_t cut, const Tensor& images,
                        std::int64_t batch_size = 64);

/// FNV-1a fingerprint of what the features at `cut` depend on: the
/// parameters of layers [0, cut) and the images.
std::uint64_t features_fingerprint(nn::Sequential& net, std::size_t cut, const Tensor& images);

/// Same as compute_features, but memoized on disk. `cache_path` holds the
/// features plus the features_fingerprint they were built from; they are
/// served only when that fingerprint matches, so features of older weights
/// or other images are never reused. A missing, stale or unreadable file is
/// recomputed and rewritten (callers key the path by model/dataset/cut).
Tensor cached_features(nn::Sequential& net, std::size_t cut, const Tensor& images,
                       const std::string& cache_path, std::int64_t batch_size = 64);

/// Evaluate classification accuracy of the head [cut, end) on cached
/// features vs labels — equivalent to full-network accuracy but much
/// cheaper when only head parameters change.
double head_accuracy(nn::Sequential& net, std::size_t cut, const Tensor& features,
                     const std::vector<std::int64_t>& labels, std::int64_t batch_size = 256);

/// Head predictions (argmax logits) on cached features.
std::vector<std::int64_t> head_predictions(nn::Sequential& net, std::size_t cut,
                                           const Tensor& features, std::int64_t batch_size = 256);

}  // namespace fsa::models

// fingerprint.h — 64-bit FNV-1a content hash used to key the zoo's caches.
//
// The zoo memoizes results derived from a weights blob and an image set
// (test accuracy, conv-prefix features). A cached value is served only when
// the fingerprint stored with it equals the fingerprint of the inputs in
// hand, so a retrain or a changed image set can never reuse a stale entry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "tensor/tensor.h"

namespace fsa::models {

class Fingerprint {
 public:
  Fingerprint& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = h_;
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
    h_ = h;
    return *this;
  }

  /// Dims, then the float bytes.
  Fingerprint& tensor(const Tensor& t) {
    const auto& dims = t.shape().dims();
    bytes(dims.data(), dims.size() * sizeof(std::int64_t));
    return bytes(t.data(), t.size() * sizeof(float));
  }

  Fingerprint& labels(const std::vector<std::int64_t>& v) {
    return bytes(v.data(), v.size() * sizeof(std::int64_t));
  }

  Fingerprint& params(const std::vector<nn::Parameter*>& ps) {
    for (const auto* p : ps) tensor(p->value());
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace fsa::models

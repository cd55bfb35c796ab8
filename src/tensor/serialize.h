// serialize.h — binary (de)serialization of tensors.
//
// Format (little-endian, the only platform we target):
//   magic "FSAT"  u32 version  u32 rank  i64 dims[rank]  f32 data[numel]
// Used by the model zoo to cache trained networks and feature caches so
// that every bench/example after the first run starts instantly.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fsa::io {

/// Write one tensor to a binary stream. Throws std::runtime_error on failure.
void write_tensor(std::ostream& os, const Tensor& t);

/// Read one tensor written by write_tensor. Throws std::runtime_error on
/// malformed input, including a header whose element count overflows or
/// needs more bytes than the stream has left.
Tensor read_tensor(std::istream& is);

/// Run `write` on a temp file in the directory of `path` (created if
/// missing), then rename it over `path`: a concurrent reader sees the old
/// file or the new one, never a torn one. Throws std::runtime_error (or
/// whatever `write` throws) and leaves no temp file behind on failure.
void write_file_atomic(const std::string& path, const std::function<void(std::ostream&)>& write);

/// Write a whole list of tensors (count-prefixed) to `path`, atomically.
void save_tensors(const std::string& path, const std::vector<Tensor>& tensors);

/// Read a list written by save_tensors.
std::vector<Tensor> load_tensors(const std::string& path);

/// True if `path` exists and is a regular file.
bool file_exists(const std::string& path);

}  // namespace fsa::io

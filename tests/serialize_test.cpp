// serialize_test.cpp — round trips and corruption handling of tensor I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "scratch_dir.h"
#include "tensor/serialize.h"

namespace fsa {
namespace {

std::string temp_path(const std::string& name) { return testutil::scratch_path(name); }

/// A stream holding one tensor header with the given dims and `data_bytes`
/// bytes after it.
std::stringstream header_stream(const std::vector<std::int64_t>& dims, std::size_t data_bytes) {
  std::stringstream ss;
  ss.write("FSAT", 4);
  const std::uint32_t version = 1;
  const auto rank = static_cast<std::uint32_t>(dims.size());
  ss.write(reinterpret_cast<const char*>(&version), sizeof(version));
  ss.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
  for (const std::int64_t d : dims) ss.write(reinterpret_cast<const char*>(&d), sizeof(d));
  ss << std::string(data_bytes, '\0');
  return ss;
}

std::size_t temp_files_in(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().filename().string().find(".tmp.") != std::string::npos) ++n;
  return n;
}

TEST(Serialize, StreamRoundTrip) {
  Rng rng(1);
  const Tensor t = Tensor::randn(Shape({3, 4, 5}), rng);
  std::stringstream ss;
  io::write_tensor(ss, t);
  const Tensor back = io::read_tensor(ss);
  EXPECT_EQ(back, t);
}

TEST(Serialize, EmptyTensorRoundTrip) {
  const Tensor t(Shape({0}));
  std::stringstream ss;
  io::write_tensor(ss, t);
  const Tensor back = io::read_tensor(ss);
  EXPECT_EQ(back.shape(), Shape({0}));
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream ss;
  ss << "NOPExxxxxxxxxxxxxxxx";
  EXPECT_THROW(io::read_tensor(ss), std::runtime_error);
}

TEST(Serialize, TruncatedDataThrows) {
  Rng rng(2);
  const Tensor t = Tensor::randn(Shape({64}), rng);
  std::stringstream ss;
  io::write_tensor(ss, t);
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream cut(bytes);
  EXPECT_THROW(io::read_tensor(cut), std::runtime_error);
}

TEST(Serialize, OverflowingDimProductThrows) {
  // A 44-byte blob file: one tensor whose dims {2000, 2^32, 2^32} wrap the
  // element count to 0 without the check.
  const testutil::Scratch scratch("fsa_serialize_overflow");
  const std::string path = scratch.sub("hostile.bin");
  {
    const std::uint64_t count = 1;
    std::ofstream os(path, std::ios::binary);
    os.write(reinterpret_cast<const char*>(&count), sizeof(count));
    os << header_stream({2000, 1LL << 32, 1LL << 32}, 0).rdbuf();
  }
  ASSERT_EQ(std::filesystem::file_size(path), 44u);
  try {
    (void)io::load_tensors(path);
    FAIL() << "an overflowing header must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos) << e.what();
  }
}

TEST(Serialize, HeaderLargerThanStreamThrows) {
  // 2^31 floats declared, 16 bytes present: rejected before allocating.
  std::stringstream ss = header_stream({1LL << 16, 1LL << 15}, 16);
  try {
    (void)io::read_tensor(ss);
    FAIL() << "a header promising more bytes than the stream has must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stream has 16"), std::string::npos) << e.what();
  }
  // Exactly enough bytes still loads.
  std::stringstream exact = header_stream({2, 3}, 6 * sizeof(float));
  EXPECT_EQ(io::read_tensor(exact).shape(), Shape({2, 3}));
}

TEST(Serialize, SaveReplacesAtomically) {
  const testutil::Scratch scratch("fsa_serialize_atomic");
  const std::string path = scratch.sub("blob.bin");
  const Tensor old_value = Tensor::full(Shape({3}), 1.0f);
  io::save_tensors(path, {old_value});
  EXPECT_EQ(temp_files_in(scratch.dir.string()), 0u);
  // A write that fails half way leaves the old file whole and no temp file.
  EXPECT_THROW(io::write_file_atomic(path,
                                     [](std::ostream& os) {
                                       os << "partial";
                                       throw std::runtime_error("disk full");
                                     }),
               std::runtime_error);
  const auto back = io::load_tensors(path);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], old_value);
  EXPECT_EQ(temp_files_in(scratch.dir.string()), 0u);
  // A successful save replaces the content.
  io::save_tensors(path, {Tensor::full(Shape({2}), 2.0f)});
  EXPECT_EQ(io::load_tensors(path)[0], Tensor::full(Shape({2}), 2.0f));
}

TEST(Serialize, FileListRoundTrip) {
  Rng rng(3);
  const std::vector<Tensor> tensors = {Tensor::randn(Shape({7}), rng),
                                       Tensor::randn(Shape({2, 2}), rng), Tensor(Shape({1}))};
  const std::string path = temp_path("fsa_serialize_test.bin");
  io::save_tensors(path, tensors);
  const auto back = io::load_tensors(path);
  ASSERT_EQ(back.size(), tensors.size());
  for (std::size_t i = 0; i < back.size(); ++i) EXPECT_EQ(back[i], tensors[i]);
  std::remove(path.c_str());
}

TEST(Serialize, SaveCreatesParentDirectories) {
  const std::string dir = temp_path("fsa_nested_dir_test");
  const std::string path = dir + "/deep/file.bin";
  std::filesystem::remove_all(dir);
  io::save_tensors(path, {Tensor(Shape({2}))});
  EXPECT_TRUE(io::file_exists(path));
  std::filesystem::remove_all(dir);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(io::load_tensors(temp_path("definitely_missing_fsa.bin")), std::runtime_error);
}

TEST(Serialize, FileExists) {
  EXPECT_FALSE(io::file_exists(temp_path("not_there_fsa.bin")));
  const std::string path = temp_path("fsa_exists_test.bin");
  io::save_tensors(path, {});
  EXPECT_TRUE(io::file_exists(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fsa

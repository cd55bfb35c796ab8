// scratch_dir.h — per-process scratch directories for tests.
//
// Every path a test writes lives under this process's own directory, made
// by mkdtemp under TempDir() on first use and removed at exit. Two
// concurrent runs of one test binary (ctest --repeat, -j, or another
// checkout's suite) therefore never share, or remove_all, each other's
// caches and scratch files.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

namespace fsa::testutil {

inline const std::filesystem::path& process_root() {
  static const struct Root {
    std::filesystem::path dir;
    Root() {
      std::string tmpl = ::testing::TempDir() + "fsa_test.XXXXXX";
      if (::mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
      dir = tmpl;
    }
    ~Root() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } root;
  return root.dir;
}

/// `name` under process_root() (not created).
inline std::string scratch_path(const std::string& name) {
  return (process_root() / name).string();
}

/// Fresh, empty scratch directory per test, removed on destruction.
struct Scratch {
  std::filesystem::path dir;
  explicit Scratch(const std::string& name) : dir(process_root() / name) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~Scratch() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  [[nodiscard]] std::string sub(const std::string& name) const { return (dir / name).string(); }
};

}  // namespace fsa::testutil

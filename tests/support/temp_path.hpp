// Per-process unique scratch paths for tests. ctest runs every TEST in its
// own process, in parallel under `ctest -j`, so two tests writing one
// fixed file name under ::testing::TempDir() race each other. The pid
// separates processes; the counter separates calls within one process.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <string>

namespace dicer::test {

/// A fresh path under ::testing::TempDir() ending in `name` (keep the
/// extension: some writers pick their format from it).
inline std::string unique_temp_path(const std::string& name) {
  static std::atomic<unsigned> counter{0};
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') dir += '/';
  return dir + "dicer_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + "_" + name;
}

}  // namespace dicer::test

#include "util/log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "support/temp_path.hpp"
#include "util/thread_pool.hpp"

namespace dicer::util {
namespace {

/// Redirects the logger to a temp file for one test, restoring stderr and
/// the previous threshold afterwards.
struct CapturedLog {
  std::string path = test::unique_temp_path("dicer_log_capture.txt");
  std::FILE* file = nullptr;
  LogLevel saved = log_threshold();

  CapturedLog() {
    file = std::fopen(path.c_str(), "w");
    set_log_file(file);
  }
  ~CapturedLog() {
    set_log_file(nullptr);
    std::fclose(file);
    std::remove(path.c_str());
    set_log_threshold(saved);
  }
  std::vector<std::string> lines() {
    std::fflush(file);
    std::ifstream in(path);
    std::vector<std::string> out;
    std::string line;
    while (std::getline(in, line)) out.push_back(line);
    return out;
  }
};

TEST(Log, ParseLevelCoversAllNamesAndDefaults) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level(""), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::kOff), LogLevel::kOff);
}

TEST(Log, ThresholdFiltersAndPrefixes) {
  CapturedLog cap;
  set_log_threshold(LogLevel::kWarn);
  log_line(LogLevel::kInfo, "dropped");
  log_line(LogLevel::kWarn, "kept");
  log_line(LogLevel::kError, "also kept");
  const auto lines = cap.lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "[warn ] kept");
  EXPECT_EQ(lines[1], "[error] also kept");
}

TEST(Log, StreamMacroAssemblesOneLine) {
  CapturedLog cap;
  set_log_threshold(LogLevel::kDebug);
  DICER_DEBUG << "ways " << 19 << " -> " << 18;
  const auto lines = cap.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "[debug] ways 19 -> 18");
}

// The satellite guarantee: concurrent loggers never interleave partial
// lines. Each worker writes distinctive lines; every captured line must be
// exactly one worker's whole message. Run under TSan in CI.
TEST(Log, ConcurrentWritersNeverInterleave) {
  CapturedLog cap;
  set_log_threshold(LogLevel::kInfo);
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 200;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futs;
    for (unsigned w = 0; w < kThreads; ++w) {
      futs.push_back(pool.submit([w] {
        const std::string body(20 + w, static_cast<char>('a' + w));
        for (unsigned i = 0; i < kPerThread; ++i) {
          log_line(LogLevel::kInfo, body);
        }
      }));
    }
    for (auto& f : futs) f.get();
  }
  const auto lines = cap.lines();
  ASSERT_EQ(lines.size(), kThreads * kPerThread);
  for (const auto& line : lines) {
    ASSERT_GE(line.size(), 28u) << "torn line: " << line;
    const char c = line[8];
    ASSERT_GE(c, 'a');
    ASSERT_LE(c, 'd');
    const std::string expected =
        "[info ] " +
        std::string(20 + static_cast<unsigned>(c - 'a'), c);
    EXPECT_EQ(line, expected);
  }
}

}  // namespace
}  // namespace dicer::util

#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include "util/thread_pool.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "support/temp_path.hpp"

namespace dicer::harness {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& l : lines) out << l << "\n";
}

/// Rewrite every data row's hp cell to "tampered", keeping the key and
/// header intact. A subsequent policy_sweep that *hits* the cache returns
/// "tampered" rows; one that correctly treats the cache as stale
/// recomputes and returns real workload names.
void tamper_hp_names(const std::string& path) {
  auto lines = read_lines(path);
  for (std::size_t i = 2; i < lines.size(); ++i) {
    lines[i] = "tampered" + lines[i].substr(lines[i].find(','));
  }
  write_lines(path, lines);
}

void expect_rows_identical(const std::vector<SweepRow>& a,
                           const std::vector<SweepRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].hp, b[i].hp) << "row " << i;
    EXPECT_EQ(a[i].be, b[i].be) << "row " << i;
    EXPECT_EQ(a[i].policy, b[i].policy) << "row " << i;
    EXPECT_EQ(a[i].cores, b[i].cores) << "row " << i;
    EXPECT_EQ(a[i].ct_favoured, b[i].ct_favoured) << "row " << i;
    // Bitwise equality, not NEAR: cached and parallel sweeps must be
    // byte-identical to the serial sweep.
    EXPECT_EQ(a[i].hp_alone, b[i].hp_alone) << "row " << i;
    EXPECT_EQ(a[i].be_alone, b[i].be_alone) << "row " << i;
    EXPECT_EQ(a[i].hp_ipc, b[i].hp_ipc) << "row " << i;
    EXPECT_EQ(a[i].be_ipc, b[i].be_ipc) << "row " << i;
    EXPECT_EQ(a[i].efu, b[i].efu) << "row " << i;
  }
}

BaselineEntry sample_entry(const char* hp, const char* be) {
  BaselineEntry e;
  e.spec = {hp, be};
  e.hp_alone_ipc = 3.0;  // generous solo IPC: normalised values < 1
  e.be_alone_ipc = 3.0;
  e.um_hp_ipc = 2.7;
  e.ct_hp_ipc = 2.85;
  return e;
}

SweepConfig small_config() {
  SweepConfig sc;
  sc.policies = {"UM", "CT"};
  sc.cores = {2, 4};
  return sc;
}

TEST(PolicySweep, ProducesFullGrid) {
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3"), sample_entry("namd1", "bzip22")};
  const auto rows = policy_sweep(sim::default_catalog(), sample,
                                 small_config(), /*cache_path=*/"");
  EXPECT_EQ(rows.size(), 2u * 2u * 2u);
  for (const auto& r : rows) {
    EXPECT_GT(r.hp_ipc, 0.0);
    EXPECT_GT(r.be_ipc, 0.0);
    EXPECT_GT(r.efu, 0.0);
    EXPECT_LE(r.efu, 1.0);
    EXPECT_GT(r.hp_norm(), 0.0);
  }
}

TEST(PolicySweep, FilterSelectsCell) {
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3")};
  const auto rows = policy_sweep(sim::default_catalog(), sample,
                                 small_config(), "");
  const auto cell = filter(rows, "CT", 4);
  ASSERT_EQ(cell.size(), 1u);
  EXPECT_EQ(cell[0].policy, "CT");
  EXPECT_EQ(cell[0].cores, 4u);
}

std::string fmt17(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

TEST(PolicySweep, CacheRoundTrip) {
  const std::string path = test::unique_temp_path("sweep_cache_test.csv");
  std::remove(path.c_str());
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3")};
  const auto cfg = small_config();
  const auto rows = policy_sweep(sim::default_catalog(), sample, cfg, path);
  const auto lines = read_lines(path);
  const auto again = policy_sweep(sim::default_catalog(), sample, cfg, path);
  // Served from the cache: every field of every row bit-identical.
  expect_rows_identical(again, rows);
  // And the file is exactly the rows at full precision, so saving the
  // loaded rows would rewrite it byte for byte.
  ASSERT_EQ(lines.size(), rows.size() + 2);
  EXPECT_EQ(lines[1], "hp,be,policy,cores,ctf,hp_alone,be_alone,hp_ipc,"
                      "be_ipc,efu");
  for (std::size_t i = 0; i < again.size(); ++i) {
    const auto& r = again[i];
    EXPECT_EQ(lines[i + 2],
              r.hp + "," + r.be + "," + r.policy + "," +
                  std::to_string(r.cores) + "," + (r.ct_favoured ? "1" : "0") +
                  "," + fmt17(r.hp_alone) + "," + fmt17(r.be_alone) + "," +
                  fmt17(r.hp_ipc) + "," + fmt17(r.be_ipc) + "," +
                  fmt17(r.efu));
  }
  std::remove(path.c_str());
}

TEST(PolicySweep, KeyHashesConfigExactly) {
  // A %g key (6 significant digits) served one cache to min_window_sec
  // 0.5 and 0.5000001.
  const std::string path = test::unique_temp_path("sweep_exact_key.csv");
  std::remove(path.c_str());
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3")};
  auto cfg = small_config();
  cfg.policies = {"UM"};
  cfg.cores = {2};
  cfg.base.min_window_sec = 0.5;
  policy_sweep(sim::default_catalog(), sample, cfg, path);
  tamper_hp_names(path);
  auto nearby = cfg;
  nearby.base.min_window_sec = 0.5000001;
  const auto rows = policy_sweep(sim::default_catalog(), sample, nearby, path);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].hp, "milc1") << "stale cache reused across a "
                                    "min_window_sec change";
  std::remove(path.c_str());
}

TEST(PolicySweep, CacheKeyedBySample) {
  const std::string path = test::unique_temp_path("sweep_key_test.csv");
  std::remove(path.c_str());
  const auto cfg = small_config();
  const std::vector<BaselineEntry> s1 = {sample_entry("milc1", "gcc_base3")};
  const std::vector<BaselineEntry> s2 = {sample_entry("namd1", "bzip22")};
  policy_sweep(sim::default_catalog(), s1, cfg, path);
  // Different sample -> cache miss -> rows describe the new sample.
  const auto rows = policy_sweep(sim::default_catalog(), s2, cfg, path);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].hp, "namd1");
  std::remove(path.c_str());
}

TEST(PolicySweep, CorruptNumericCellFallsBackToRecompute) {
  const std::string path = test::unique_temp_path("sweep_corrupt_cell.csv");
  std::remove(path.c_str());
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3")};
  const auto cfg = small_config();
  const auto rows = policy_sweep(sim::default_catalog(), sample, cfg, path);

  auto lines = read_lines(path);
  ASSERT_GT(lines.size(), 2u);
  // Garbage in the cores column ("12abc" has trailing junk stoul would
  // silently accept) and pure garbage in a float column.
  lines[2].replace(lines[2].find(",2,"), 3, ",12abc,");
  lines.back().replace(lines.back().rfind(','), std::string::npos,
                       ",notanumber");
  write_lines(path, lines);

  const auto again = policy_sweep(sim::default_catalog(), sample, cfg, path);
  expect_rows_identical(again, rows);
  // The recompute must have repaired the cache in place.
  tamper_hp_names(path);
  const auto hit = policy_sweep(sim::default_catalog(), sample, cfg, path);
  ASSERT_FALSE(hit.empty());
  EXPECT_EQ(hit[0].hp, "tampered");
  std::remove(path.c_str());
}

TEST(PolicySweep, TruncatedRowFallsBackToRecompute) {
  const std::string path = test::unique_temp_path("sweep_truncated.csv");
  std::remove(path.c_str());
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3")};
  const auto cfg = small_config();
  const auto rows = policy_sweep(sim::default_catalog(), sample, cfg, path);

  auto lines = read_lines(path);
  ASSERT_GT(lines.size(), 2u);
  // Chop the last row mid-way, as an interrupted writer would have.
  lines.back() = lines.back().substr(0, lines.back().find(',') + 3);
  write_lines(path, lines);

  const auto again = policy_sweep(sim::default_catalog(), sample, cfg, path);
  expect_rows_identical(again, rows);
  std::remove(path.c_str());
}

TEST(PolicySweep, WrongColumnHeaderFallsBackToRecompute) {
  const std::string path = test::unique_temp_path("sweep_bad_header.csv");
  std::remove(path.c_str());
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3")};
  const auto cfg = small_config();
  const auto rows = policy_sweep(sim::default_catalog(), sample, cfg, path);

  auto lines = read_lines(path);
  ASSERT_GT(lines.size(), 2u);
  lines[1] = "hp,be,policy,bogus";
  write_lines(path, lines);

  const auto again = policy_sweep(sim::default_catalog(), sample, cfg, path);
  expect_rows_identical(again, rows);
  std::remove(path.c_str());
}

TEST(PolicySweep, ExtraColumnsFallBackToRecompute) {
  const std::string path = test::unique_temp_path("sweep_extra_cols.csv");
  std::remove(path.c_str());
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3")};
  const auto cfg = small_config();
  const auto rows = policy_sweep(sim::default_catalog(), sample, cfg, path);

  auto lines = read_lines(path);
  lines[2] += ",0.5";
  write_lines(path, lines);

  const auto again = policy_sweep(sim::default_catalog(), sample, cfg, path);
  expect_rows_identical(again, rows);
  std::remove(path.c_str());
}

TEST(PolicySweep, KeyInvalidatedByMinWindow) {
  const std::string path = test::unique_temp_path("sweep_key_minwin.csv");
  std::remove(path.c_str());
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3")};
  auto cfg = small_config();
  policy_sweep(sim::default_catalog(), sample, cfg, path);
  tamper_hp_names(path);

  // Control: unchanged config hits the (tampered) cache.
  const auto hit = policy_sweep(sim::default_catalog(), sample, cfg, path);
  ASSERT_FALSE(hit.empty());
  EXPECT_EQ(hit[0].hp, "tampered");

  auto changed = cfg;
  changed.base.min_window_sec = cfg.base.min_window_sec / 2;
  const auto miss =
      policy_sweep(sim::default_catalog(), sample, changed, path);
  ASSERT_FALSE(miss.empty());
  EXPECT_EQ(miss[0].hp, "milc1") << "stale cache reused across "
                                    "min_window_sec change";
  std::remove(path.c_str());
}

TEST(PolicySweep, KeyInvalidatedByEnableMba) {
  const std::string path = test::unique_temp_path("sweep_key_mba.csv");
  std::remove(path.c_str());
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3")};
  auto cfg = small_config();
  policy_sweep(sim::default_catalog(), sample, cfg, path);
  tamper_hp_names(path);

  auto changed = cfg;
  changed.base.enable_mba = !cfg.base.enable_mba;
  const auto miss =
      policy_sweep(sim::default_catalog(), sample, changed, path);
  ASSERT_FALSE(miss.empty());
  EXPECT_EQ(miss[0].hp, "milc1")
      << "stale cache reused across enable_mba change";
  std::remove(path.c_str());
}

TEST(PolicySweep, KeyInvalidatedByMachineGeometry) {
  const std::string path = test::unique_temp_path("sweep_key_machine.csv");
  std::remove(path.c_str());
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3")};
  auto cfg = small_config();
  policy_sweep(sim::default_catalog(), sample, cfg, path);
  tamper_hp_names(path);

  auto more_cores = cfg;
  more_cores.base.machine.num_cores = cfg.base.machine.num_cores + 2;
  const auto miss1 =
      policy_sweep(sim::default_catalog(), sample, more_cores, path);
  ASSERT_FALSE(miss1.empty());
  EXPECT_EQ(miss1[0].hp, "milc1")
      << "stale cache reused across num_cores change";

  tamper_hp_names(path);
  auto faster = more_cores;
  faster.base.machine.freq_hz = cfg.base.machine.freq_hz * 1.5;
  const auto miss2 =
      policy_sweep(sim::default_catalog(), sample, faster, path);
  ASSERT_FALSE(miss2.empty());
  EXPECT_EQ(miss2[0].hp, "milc1")
      << "stale cache reused across freq_hz change";
  std::remove(path.c_str());
}

TEST(PolicySweep, ParallelMatchesSerialByteIdentical) {
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3"), sample_entry("namd1", "bzip22"),
      sample_entry("milc1", "bzip22")};
  auto serial_cfg = small_config();
  serial_cfg.policies = {"UM", "CT", "DICER"};
  serial_cfg.jobs = 1;
  auto parallel_cfg = serial_cfg;
  parallel_cfg.jobs = 4;

  const auto serial =
      policy_sweep(sim::default_catalog(), sample, serial_cfg, "");
  const auto parallel =
      policy_sweep(sim::default_catalog(), sample, parallel_cfg, "");
  expect_rows_identical(parallel, serial);
}

TEST(PolicySweep, ParallelCacheFileByteIdenticalToSerial) {
  const std::string serial_path =
      test::unique_temp_path("sweep_serial_cache.csv");
  const std::string parallel_path =
      test::unique_temp_path("sweep_parallel_cache.csv");
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3"), sample_entry("namd1", "bzip22")};
  auto serial_cfg = small_config();
  serial_cfg.jobs = 1;
  auto parallel_cfg = small_config();
  parallel_cfg.jobs = 4;
  policy_sweep(sim::default_catalog(), sample, serial_cfg, serial_path);
  policy_sweep(sim::default_catalog(), sample, parallel_cfg, parallel_path);
  // No stray temp file left behind by the atomic rename.
  EXPECT_FALSE(std::ifstream(parallel_path + ".tmp").good());
  // The cache a parallel sweep writes is byte-identical to the serial
  // one (same key — jobs is excluded — same order, same values).
  EXPECT_EQ(read_lines(parallel_path), read_lines(serial_path));
  // And re-loading it reproduces the rows exactly.
  const auto cached = policy_sweep(sim::default_catalog(), sample,
                                   parallel_cfg, parallel_path);
  const auto fresh =
      policy_sweep(sim::default_catalog(), sample, parallel_cfg, "");
  expect_rows_identical(cached, fresh);
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
}

TEST(PolicySweep, ConcurrentSaversNeverCorruptTheCache) {
  // Two sweeps force-recomputing into the same cache path (two bench
  // processes sharing a cache dir) must not clobber each other's temp
  // file mid-write: each save streams into a unique temp name and the
  // last atomic rename wins with a complete file.
  const std::string dir = ::testing::TempDir();
  const std::string path = test::unique_temp_path("sweep_concurrent_save.csv");
  std::remove(path.c_str());
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3")};
  auto cfg = small_config();
  cfg.jobs = 1;
  const auto expected =
      policy_sweep(sim::default_catalog(), sample, cfg, "");

  std::vector<std::thread> writers;
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back([&] {
      policy_sweep(sim::default_catalog(), sample, cfg, path,
                   /*force_recompute=*/true);
    });
  }
  for (auto& t : writers) t.join();

  // Whatever interleaving happened, the installed cache is complete: a
  // plain (non-forced) sweep hits it and returns the full grid exactly.
  const auto cached = policy_sweep(sim::default_catalog(), sample, cfg, path);
  expect_rows_identical(cached, expected);
  // And no temp droppings were left next to it.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(path + ".tmp"), std::string::npos)
        << "stray temp file: " << entry.path();
  }
  std::remove(path.c_str());
}

TEST(ResolveSweepJobs, ExplicitRequestWins) {
  EXPECT_EQ(resolve_sweep_jobs(3), 3u);
  EXPECT_GE(resolve_sweep_jobs(0), 1u);
}

TEST(PolicySweep, CtFavouredFlagPropagated) {
  std::vector<BaselineEntry> sample = {sample_entry("milc1", "gcc_base3")};
  sample[0].ct_hp_ipc = 2.95;  // force CT-F classification
  const auto rows =
      policy_sweep(sim::default_catalog(), sample, small_config(), "");
  for (const auto& r : rows) EXPECT_TRUE(r.ct_favoured);
}

TEST(PolicySweep, KeyInvalidatedBySolverKnobs) {
  // Regression: the v5 key omitted fixed_point_rounds, so changing the
  // solver's round cap silently served rows computed with the old
  // convergence behaviour.
  const std::string path = test::unique_temp_path("sweep_key_solver.csv");
  std::remove(path.c_str());
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3")};
  auto cfg = small_config();
  policy_sweep(sim::default_catalog(), sample, cfg, path);
  tamper_hp_names(path);

  // Control: unchanged config hits the (tampered) cache.
  const auto hit = policy_sweep(sim::default_catalog(), sample, cfg, path);
  ASSERT_FALSE(hit.empty());
  EXPECT_EQ(hit[0].hp, "tampered");

  auto more_rounds = cfg;
  more_rounds.base.machine.fixed_point_rounds =
      cfg.base.machine.fixed_point_rounds + 4;
  const auto miss1 =
      policy_sweep(sim::default_catalog(), sample, more_rounds, path);
  ASSERT_FALSE(miss1.empty());
  EXPECT_EQ(miss1[0].hp, "milc1")
      << "stale cache reused across fixed_point_rounds change";
  std::remove(path.c_str());
}

TEST(PolicySweep, CorruptBoolCellFallsBackToRecompute) {
  // Regression: the loader used to parse ctf with `cell == "1"`, so a
  // garbage cell ("2", "x") silently became false instead of rejecting
  // the cache.
  const std::string path = test::unique_temp_path("sweep_corrupt_bool.csv");
  std::remove(path.c_str());
  const std::vector<BaselineEntry> sample = {
      sample_entry("milc1", "gcc_base3")};
  const auto cfg = small_config();
  const auto rows = policy_sweep(sim::default_catalog(), sample, cfg, path);

  for (const char* garbage : {"2", "x"}) {
    auto lines = read_lines(path);
    ASSERT_GT(lines.size(), 2u);
    // Replace the ctf cell (5th column) of the first data row.
    std::size_t pos = 0;
    for (int commas = 0; commas < 4; ++commas) {
      pos = lines[2].find(',', pos) + 1;
    }
    const std::size_t end = lines[2].find(',', pos);
    lines[2].replace(pos, end - pos, garbage);
    write_lines(path, lines);

    const auto again = policy_sweep(sim::default_catalog(), sample, cfg, path);
    expect_rows_identical(again, rows);
  }
  std::remove(path.c_str());
}

TEST(ResolveSweepJobs, EnvEdgeCases) {
  // resolve_sweep_jobs delegates to the one shared implementation
  // (util::ThreadPool::resolve_jobs) — these pin the strict
  // $DICER_SWEEP_JOBS parse so the two callers can never drift apart
  // again.
  const unsigned hw = util::ThreadPool::hardware_workers();

  // "2" never trips the 4x-hardware clamp (cap >= 4 even on 1 thread).
  ASSERT_EQ(setenv("DICER_SWEEP_JOBS", "2", 1), 0);
  EXPECT_EQ(resolve_sweep_jobs(0), 2u);
  EXPECT_EQ(resolve_sweep_jobs(3), 3u);  // explicit request beats the env

  // Not a worker count: fall back to hardware concurrency, never 0.
  ASSERT_EQ(setenv("DICER_SWEEP_JOBS", "0", 1), 0);
  EXPECT_EQ(resolve_sweep_jobs(0), hw);

  // Partial parses must not silently truncate ("4x" is not 4).
  ASSERT_EQ(setenv("DICER_SWEEP_JOBS", "4x", 1), 0);
  EXPECT_EQ(resolve_sweep_jobs(0), hw);

  // Negative values must not wrap to a huge unsigned.
  ASSERT_EQ(setenv("DICER_SWEEP_JOBS", "-1", 1), 0);
  EXPECT_EQ(resolve_sweep_jobs(0), hw);

  ASSERT_EQ(setenv("DICER_SWEEP_JOBS", "", 1), 0);
  EXPECT_EQ(resolve_sweep_jobs(0), hw);

  // Oversubscription by orders of magnitude clamps to 4x hardware.
  ASSERT_EQ(setenv("DICER_SWEEP_JOBS", "999999", 1), 0);
  EXPECT_EQ(resolve_sweep_jobs(0), 4u * hw);

  unsetenv("DICER_SWEEP_JOBS");
  EXPECT_EQ(resolve_sweep_jobs(0), hw);
}

}  // namespace
}  // namespace dicer::harness

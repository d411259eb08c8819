// Cross-validation: the analytic MRC family against the trace-driven LRU
// cache. The whole-figure experiments run on the analytic model; these
// tests pin its shapes to true set-associative LRU behaviour.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/cache/mrc.hpp"
#include "sim/cache/mrc_profiler.hpp"
#include "support/mrc_oracle.hpp"

namespace dicer::sim {
namespace {

MrcProfilerConfig small_cache() {
  MrcProfilerConfig cfg;
  cfg.geometry = {.size_bytes = 2 * 1024 * 1024, .ways = 16, .line_bytes = 64};
  cfg.warmup_accesses = 60'000;
  cfg.measure_accesses = 120'000;
  return cfg;
}

TEST(MrcValidation, WorkingSetStreamKneeAtWorkingSet) {
  // Random reuse over 1 MB in a 2 MB/16-way cache: miss ratio must be high
  // below ~1 MB of allocation and near zero above it.
  const auto cfg = small_cache();
  const std::uint64_t ws = 1 << 20;
  const auto mrc = test::profile(cfg, [&] {
    return std::make_unique<WorkingSetStream>(ws, 0, util::Xoshiro256(42));
  });
  ASSERT_EQ(mrc.size(), 16u);
  EXPECT_GT(mrc.at(128.0 * 1024), 0.5);
  EXPECT_LT(mrc.at(1.75 * 1024 * 1024), 0.05);
}

TEST(MrcValidation, WorkingSetMatchesLinearCoverageCurve) {
  // The analytic claim behind MrcComponent{shape=1}: for uniform random
  // reuse, miss ratio ~ 1 - resident_fraction. Check the empirical curve
  // tracks the analytic one within a loose band at every way count.
  const auto cfg = small_cache();
  const std::uint64_t ws = 1 << 20;
  const auto empirical = test::profile(cfg, [&] {
    return std::make_unique<WorkingSetStream>(ws, 0, util::Xoshiro256(7));
  });
  const auto analytic =
      MissRatioCurve::single_knee(1.0, static_cast<double>(ws), 0.0, 1.0);
  for (const auto& [bytes, miss] : empirical.points()) {
    EXPECT_NEAR(miss, analytic.at(bytes), 0.15)
        << "at " << bytes / 1024.0 << " KiB";
  }
}

TEST(MrcValidation, StreamingIsFlatAndHigh) {
  const auto cfg = small_cache();
  const auto mrc = test::profile(cfg, [&] {
    return std::make_unique<StreamingStream>(64ull << 20, 64, 0);
  });
  for (const auto& [bytes, miss] : mrc.points()) {
    EXPECT_GT(miss, 0.95) << "at " << bytes;
  }
  EXPECT_LT(mrc.monotonicity_violation(), 0.02);
}

TEST(MrcValidation, BimodalShowsTwoPlateaus) {
  const auto cfg = small_cache();
  const std::uint64_t hot = 256 << 10, cold = 4 << 20;
  const auto mrc = test::profile(cfg, [&] {
    return std::make_unique<BimodalStream>(hot, cold, 0.8, 0,
                                           util::Xoshiro256(3));
  });
  // Covering the hot set (~256 KiB) removes ~80% of misses.
  const double at_hot = mrc.at(512.0 * 1024);
  EXPECT_LT(at_hot, 0.35);
  EXPECT_GT(at_hot, 0.1);  // the cold 4 MB set still misses
}

TEST(MrcValidation, EmpiricalCurvesMonotone) {
  const auto cfg = small_cache();
  for (int seed : {1, 2}) {
    const auto mrc = test::profile(cfg, [&] {
      return std::make_unique<MixedStream>(1 << 20, 0.7, 0,
                                           util::Xoshiro256(
                                               static_cast<std::uint64_t>(seed)));
    });
    EXPECT_LT(mrc.monotonicity_violation(), 0.05);
  }
}

// --- Single-pass profiler acceptance --------------------------------------
//
// The acceptance bar for the reuse-distance profiler, enforced on the
// 20-way validation geometry (2.5 MB / 20-way / 64 B = 2048 sets) across
// every AddressStream family:
//  * at sample rate 1 it is byte-identical to the exact replay oracle;
//  * sampled, it stays within 0.02 absolute miss ratio of the oracle at
//    every way count, at rate 0.125 and at the production rate 0.25.

MrcProfilerConfig accept20() {
  MrcProfilerConfig cfg;
  cfg.geometry = {
      .size_bytes = 5ull * 1024 * 1024 / 2, .ways = 20, .line_bytes = 64};
  cfg.warmup_accesses = 100'000;
  cfg.measure_accesses = 200'000;
  return cfg;
}

constexpr std::uint64_t MB = 1 << 20;

std::vector<std::pair<const char*, test::StreamFactory>> accept_families() {
  return {
      {"working_set",
       [] {
         return std::make_unique<WorkingSetStream>(MB, 0,
                                                   util::Xoshiro256(42));
       }},
      {"streaming",
       [] { return std::make_unique<StreamingStream>(64 * MB, 64, 0); }},
      {"bimodal",
       [] {
         return std::make_unique<BimodalStream>(MB / 4, 4 * MB, 0.8, 0,
                                                util::Xoshiro256(3));
       }},
      {"mixed",
       [] {
         return std::make_unique<MixedStream>(MB, 0.7, 0,
                                              util::Xoshiro256(7));
       }},
  };
}

TEST(MrcValidation, SinglePassIsByteIdenticalToOracleOnAllFamilies) {
  for (const auto& [name, make_stream] : accept_families()) {
    SCOPED_TRACE(name);
    const auto oracle = test::exact_replay_mrc(accept20(), make_stream);
    const auto fast = test::profile(accept20(), make_stream);
    ASSERT_EQ(oracle.size(), 20u);
    ASSERT_EQ(fast.size(), 20u);
    for (std::size_t i = 0; i < 20; ++i) {
      EXPECT_EQ(oracle.points()[i].first, fast.points()[i].first);
      EXPECT_EQ(oracle.points()[i].second, fast.points()[i].second)
          << "way count " << i + 1;
    }
  }
}

TEST(MrcValidation, SampledProfilerWithin2PercentOfOracleOnAllFamilies) {
  for (const auto& [fname, make_stream] : accept_families()) {
    const auto oracle = test::exact_replay_mrc(accept20(), make_stream);
    for (const double rate : {0.125, 0.25}) {
      SCOPED_TRACE(std::string(fname) + "/rate " + std::to_string(rate));
      auto cfg = accept20();
      cfg.sample_rate = rate;
      const auto sampled = test::profile(cfg, make_stream);
      ASSERT_EQ(sampled.size(), oracle.size());
      for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_NEAR(sampled.points()[i].second, oracle.points()[i].second,
                    0.02)
            << "way count " << i + 1;
      }
    }
  }
}

TEST(MrcValidation, SinglePassIsMuchFasterThanSerialOracle) {
  // Speed canary, deliberately far below the benched ~20x so CI noise
  // cannot flake it: one pass must beat 20 serial replays by >= 4x.
  const auto make_stream = [] {
    return std::make_unique<WorkingSetStream>(1 << 20, 0,
                                              util::Xoshiro256(42));
  };
  const auto cfg = accept20();
  // Warm both paths once (allocators, stream code), then time.
  test::profile(cfg, make_stream);
  const auto t0 = std::chrono::steady_clock::now();
  test::exact_replay_mrc(cfg, make_stream);
  const auto t1 = std::chrono::steady_clock::now();
  test::profile(cfg, make_stream);
  const auto t2 = std::chrono::steady_clock::now();
  const double exact_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double fast_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  EXPECT_GE(exact_ms / fast_ms, 4.0)
      << "exact " << exact_ms << " ms vs single-pass " << fast_ms << " ms";
}

TEST(MrcValidation, PartitionedProfileSeesOnlyItsWays) {
  // Profiling with w ways in an n-way cache equals profiling a cache of
  // w/n capacity — way partitioning scales capacity linearly.
  MrcProfilerConfig big = small_cache();
  const auto mrc = test::profile(big, [&] {
    return std::make_unique<WorkingSetStream>(1 << 20, 0,
                                              util::Xoshiro256(11));
  });
  // 8 of 16 ways = 1 MB for a 1 MB working set: conflict misses make it
  // imperfect but most accesses should hit.
  EXPECT_LT(mrc.at(1024.0 * 1024), 0.45);
}

}  // namespace
}  // namespace dicer::sim

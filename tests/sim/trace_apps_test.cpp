#include "sim/core/trace_apps.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/temp_path.hpp"
#include "util/cache_file.hpp"
#include "util/timer.hpp"

namespace dicer::sim {
namespace {

constexpr double MB = 1024.0 * 1024.0;

/// Fast profiling config for tests: small 20-way geometry, short windows.
MrcProfilerConfig test_config() {
  MrcProfilerConfig config;
  config.geometry = {.size_bytes = static_cast<std::uint64_t>(5 * MB / 2),
                     .ways = 20,
                     .line_bytes = 64};
  config.warmup_accesses = 30'000;
  config.measure_accesses = 60'000;
  config.sample_rate = 0.25;
  return config;
}

TEST(FitMrc, ExactOnConvexTable) {
  // A perfectly linear (hence convex) table: one uniform-reuse component.
  const EmpiricalMrc table({{1 * MB, 0.75},
                            {2 * MB, 0.50},
                            {3 * MB, 0.25},
                            {4 * MB, 0.00}});
  const auto fit = fit_mrc(table);
  EXPECT_NEAR(fit.ceiling(), 1.0, 1e-9);
  EXPECT_NEAR(fit.floor(), 0.0, 1e-9);
  for (const auto& [bytes, miss] : table.points()) {
    EXPECT_NEAR(fit.at(bytes), miss, 1e-9);
  }
  EXPECT_NEAR(fit.at(1.5 * MB), 0.625, 1e-9);
}

TEST(FitMrc, ConvexTwoSlopeTableReproduced) {
  // Steep early segment, shallow tail — convex, so the fit is exact at
  // every breakpoint.
  const EmpiricalMrc table({{1 * MB, 0.40},
                            {2 * MB, 0.20},
                            {3 * MB, 0.15},
                            {4 * MB, 0.10}});
  const auto fit = fit_mrc(table);
  for (const auto& [bytes, miss] : table.points()) {
    EXPECT_NEAR(fit.at(bytes), miss, 1e-9);
  }
  EXPECT_NEAR(fit.floor(), 0.10, 1e-9);
}

TEST(FitMrc, FlatTableIsPureStreaming) {
  const EmpiricalMrc table({{1 * MB, 0.9}, {2 * MB, 0.9}, {3 * MB, 0.9}});
  const auto fit = fit_mrc(table);
  EXPECT_NEAR(fit.floor(), 0.9, 1e-12);
  EXPECT_NEAR(fit.ceiling(), 0.9, 1e-12);
  EXPECT_NEAR(fit.stream_fraction(), 1.0, 1e-12);
  EXPECT_TRUE(fit.components().empty());
}

TEST(FitMrc, BumpyTableYieldsValidMonotoneCurve) {
  // Upward bumps (profiling noise) must not break the curve invariants.
  const EmpiricalMrc table({{1 * MB, 0.50},
                            {2 * MB, 0.55},
                            {3 * MB, 0.20},
                            {4 * MB, 0.25}});
  const auto fit = fit_mrc(table);
  EXPECT_LE(fit.ceiling(), 1.0 + 1e-12);
  EXPECT_NEAR(fit.floor(), 0.25, 1e-12);
  double prev = fit.at(0.0);
  for (double b = 0.0; b <= 5 * MB; b += MB / 4) {
    const double m = fit.at(b);
    EXPECT_LE(m, prev + 1e-12);
    prev = m;
  }
}

TEST(FitMrc, SinglePointTable) {
  const auto fit = fit_mrc(EmpiricalMrc({{2 * MB, 0.3}}));
  EXPECT_NEAR(fit.floor(), 0.3, 1e-12);
  EXPECT_NEAR(fit.at(0.0), 0.3, 1e-12);
}

TEST(FitMrc, EmptyTableThrows) {
  EXPECT_THROW(fit_mrc(EmpiricalMrc{}), std::invalid_argument);
}

TEST(TraceApps, DefaultSpecsCoverEveryPattern) {
  const auto specs = default_trace_apps();
  ASSERT_EQ(specs.size(), 4u);
  bool seen[4] = {};
  for (const auto& s : specs) seen[static_cast<int>(s.pattern)] = true;
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(TraceApps, ProfiledAppShapesMatchTheirStreams) {
  const auto specs = default_trace_apps();
  const auto config = test_config();
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.name);
    const AppProfile app = profile_trace_app(spec, config);
    ASSERT_EQ(app.phases.size(), 1u);
    EXPECT_EQ(app.suite, "TRACE");
    const auto& mrc = app.phases[0].mrc;
    EXPECT_GE(mrc.floor(), 0.0);
    EXPECT_LE(mrc.ceiling(), 1.0 + 1e-9);
    if (spec.pattern == TracePattern::kStreaming) {
      // No reuse: flat and high everywhere.
      EXPECT_GT(mrc.floor(), 0.9);
      EXPECT_GT(mrc.stream_fraction(), 0.9);
    }
    if (spec.pattern == TracePattern::kMixed) {
      // The reuse component must buy a real miss-ratio drop across the
      // profiled range.
      EXPECT_LT(mrc.at(static_cast<double>(config.geometry.size_bytes)),
                mrc.ceiling() - 0.1);
    }
  }
}

TEST(TraceApps, DefaultProfileConfigIsUsable) {
  // The default geometry must satisfy the profiler's power-of-two set
  // constraint (the paper's literal 25 MB / 20-way / 64 B would not:
  // 20480 sets). Regression test for the catalog's out-of-the-box path.
  const auto config = default_trace_profile_config();
  EXPECT_EQ(config.geometry.ways, 20u);
  const auto app = profile_trace_app(default_trace_apps()[0], config);
  ASSERT_EQ(app.phases.size(), 1u);
  EXPECT_LE(app.phases[0].mrc.ceiling(), 1.0 + 1e-9);
}

TEST(TraceApps, AugmentedCatalogContainsBaseAndTraceApps) {
  const auto catalog =
      trace_augmented_catalog(default_trace_apps(), test_config());
  EXPECT_EQ(catalog.size(), 59u + 4u);
  EXPECT_TRUE(catalog.contains("mcf1"));  // base catalog still intact
  for (const auto& spec : default_trace_apps()) {
    ASSERT_TRUE(catalog.contains(spec.name));
    EXPECT_EQ(catalog.by_name(spec.name).app_class, spec.app_class);
  }
}

// The catalog profiles its specs concurrently; every fitted curve must be
// the one a serial, one-spec-at-a-time profile gives, bit for bit.
TEST(TraceApps, ConcurrentCatalogMatchesSerialProfiles) {
  const auto specs = default_trace_apps();
  const auto config = test_config();
  const auto concurrent = trace_augmented_catalog(specs, config);
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.name);
    const auto& got = concurrent.by_name(spec.name).phases[0].mrc;
    const auto want = profile_trace_app(spec, config).phases[0].mrc;
    EXPECT_EQ(got.floor(), want.floor());
    ASSERT_EQ(got.components().size(), want.components().size());
    for (std::size_t i = 0; i < got.components().size(); ++i) {
      EXPECT_EQ(got.components()[i].weight, want.components()[i].weight);
      EXPECT_EQ(got.components()[i].ws_bytes, want.components()[i].ws_bytes);
      EXPECT_EQ(got.components()[i].shape, want.components()[i].shape);
    }
  }
}

// A spec whose stream cannot be built fails its own task only: the other
// profiles still run to the end, then the catalog throws a plain
// std::invalid_argument.
TEST(TraceApps, BadSpecThrowsAfterEveryProfileFinishes) {
  const auto defaults = default_trace_apps();
  TraceAppSpec bad = defaults[1];
  ASSERT_EQ(bad.pattern, TracePattern::kWorkingSet);
  bad.name = "trace_bad_wset";
  bad.ws_bytes = 32;  // less than one cache line
  const std::vector<TraceAppSpec> specs = {defaults[0], bad, defaults[3]};

  const auto runs = [] {
    for (const auto& [label, n] : trace::TimerRegistry::global().counters()) {
      if (label == "profiler.runs") return n;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t runs_before = runs();
  EXPECT_THROW(trace_augmented_catalog(specs, test_config()),
               std::invalid_argument);
  EXPECT_EQ(runs() - runs_before, 2u);  // both good specs profiled
}

// The production profile rows: the 80 `app,bytes,miss_ratio` rows (4
// default trace apps x 20 ways, in app-name order, exact %.17g cells) of
// the default config's per-way tables, written through util::CacheFile and
// folded with FNV-1a together with the header. The key line is excluded:
// it names the file, not the profile. Harvested before the profiler lost
// its alternative modes; re-harvest only for an intentional change to the
// trace specs, their streams or the production sampling rate.
TEST(TraceApps, DefaultProfileRowsMatchGolden) {
  const auto config = default_trace_profile_config();
  std::map<std::string, std::vector<std::pair<double, double>>> tables;
  for (const auto& spec : default_trace_apps()) {
    tables[spec.name] = profile_mrc(config, *make_trace_stream(spec)).points();
  }
  const std::string path = test::unique_temp_path("trace_profile_golden.csv");
  const util::CacheFile file{path, "trace profile rows", "trace-profile-rows",
                             "app,bytes,miss_ratio"};
  file.save([&](util::CacheRowWriter& row) {
    for (const auto& [app, points] : tables) {
      for (const auto& [bytes, ratio] : points) {
        row.text(app).real(bytes).real(ratio).end_row();
      }
    }
  });
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // "# <key>"
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    line += '\n';
    for (const char c : line) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    ++rows;
  }
  std::remove(path.c_str());
  EXPECT_EQ(rows, 1u + 4u * 20u);  // header + 4 apps x 20 ways
  EXPECT_EQ(h, 0xe2d6607a025f435bull) << std::hex << h;
}

TEST(TraceApps, CatalogAddRejectsDuplicatesAndEmpties) {
  AppCatalog catalog;
  AppProfile p;
  EXPECT_THROW(catalog.add(p), std::invalid_argument);  // empty
  p = catalog.at(0);
  EXPECT_THROW(catalog.add(p), std::invalid_argument);  // duplicate name
  p.name = "trace_unique_name";
  catalog.add(p);
  EXPECT_EQ(catalog.size(), 60u);
  EXPECT_TRUE(catalog.contains("trace_unique_name"));
}

}  // namespace
}  // namespace dicer::sim

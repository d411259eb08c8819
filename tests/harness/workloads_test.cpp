#include "harness/workloads.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "policy/baselines.hpp"
#include "support/temp_path.hpp"

namespace dicer::harness {
namespace {

TEST(WorkloadSpec, Label) {
  WorkloadSpec s{"milc1", "gcc_base3"};
  EXPECT_EQ(s.label(), "milc1 gcc_base3");
}

BaselineEntry entry(const char* hp, const char* be, double alone, double um,
                    double ct) {
  BaselineEntry e;
  e.spec = {hp, be};
  e.hp_alone_ipc = alone;
  e.be_alone_ipc = 1.0;
  e.um_hp_ipc = um;
  e.ct_hp_ipc = ct;
  e.um_be_ipc = 0.8;
  e.ct_be_ipc = 0.5;
  e.um_efu = 0.8;
  e.ct_efu = 0.6;
  return e;
}

TEST(BaselineEntry, SlowdownsAndClassification) {
  const auto e = entry("a", "b", 1.0, 0.8, 0.9);
  EXPECT_DOUBLE_EQ(e.um_slowdown(), 1.25);
  EXPECT_NEAR(e.ct_slowdown(), 1.111, 0.001);
  EXPECT_TRUE(e.ct_favoured());  // 0.9 > 0.8 * 1.03
}

TEST(BaselineEntry, TieIsCtThwarted) {
  // "No improvement" counts as CT-Thwarted (paper 2.3.3), including
  // improvements inside the noise margin.
  EXPECT_FALSE(entry("a", "b", 1.0, 0.8, 0.8).ct_favoured());
  EXPECT_FALSE(entry("a", "b", 1.0, 0.8, 0.81).ct_favoured());
  EXPECT_FALSE(entry("a", "b", 1.0, 0.9, 0.7).ct_favoured());
}

BaselineStudy synthetic_study(std::size_t n_apps = 59) {
  BaselineStudy study;
  const auto& catalog = sim::default_catalog();
  for (std::size_t i = 0; i < n_apps; ++i) {
    for (std::size_t j = 0; j < n_apps; ++j) {
      const double um = 0.4 + 0.5 * static_cast<double>((i * 59 + j) % 100) / 100.0;
      const double ct = (i + j) % 2 ? um * 1.2 : um * 0.95;
      study.entries.push_back(entry(catalog.at(i).name.c_str(),
                                    catalog.at(j).name.c_str(), 1.0, um, ct));
    }
  }
  return study;
}

TEST(BaselineStudy, CtFractionCounts) {
  const auto study = synthetic_study();
  EXPECT_EQ(study.count_ct_favoured(), 1740u);  // (i+j) odd cells
  EXPECT_NEAR(study.fraction_ct_thwarted(), 1.0 - 1740.0 / 3481.0, 1e-12);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(BaselineCache, RoundTripsExactly) {
  const std::string path = test::unique_temp_path("baseline_cache_test.csv");
  const auto& catalog = sim::default_catalog();
  auto study = synthetic_study();
  study.config = ConsolidationConfig{};
  save_baseline_cache(path, study, catalog);
  const auto loaded = load_baseline_cache(path, catalog, study.config);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->entries.size(), study.entries.size());
  for (std::size_t i = 0; i < study.entries.size(); ++i) {
    const auto& a = loaded->entries[i];
    const auto& b = study.entries[i];
    EXPECT_EQ(a.spec.hp, b.spec.hp) << i;
    EXPECT_EQ(a.spec.be, b.spec.be) << i;
    EXPECT_EQ(a.hp_alone_ipc, b.hp_alone_ipc) << i;
    EXPECT_EQ(a.be_alone_ipc, b.be_alone_ipc) << i;
    EXPECT_EQ(a.um_hp_ipc, b.um_hp_ipc) << i;
    EXPECT_EQ(a.um_be_ipc, b.um_be_ipc) << i;
    EXPECT_EQ(a.ct_hp_ipc, b.ct_hp_ipc) << i;
    EXPECT_EQ(a.ct_be_ipc, b.ct_be_ipc) << i;
    EXPECT_EQ(a.um_efu, b.um_efu) << i;
    EXPECT_EQ(a.ct_efu, b.ct_efu) << i;
  }
  // save(load(f)) == f, byte for byte.
  const std::string again = test::unique_temp_path("baseline_cache_again.csv");
  save_baseline_cache(again, *loaded, catalog);
  EXPECT_EQ(read_file(again), read_file(path));
  std::remove(path.c_str());
  std::remove(again.c_str());
}

TEST(BaselineCache, KeyHashesConfigExactly) {
  // %g keys (6 significant digits) served one cache to configurations
  // that differ past the 6th digit.
  const std::string path = test::unique_temp_path("baseline_exact_key.csv");
  const auto& catalog = sim::default_catalog();
  auto study = synthetic_study();
  study.config = ConsolidationConfig{};
  study.config.min_window_sec = 0.5;
  save_baseline_cache(path, study, catalog);
  ASSERT_TRUE(load_baseline_cache(path, catalog, study.config).has_value());

  std::vector<std::pair<const char*, ConsolidationConfig>> nearby;
  auto add = [&](const char* field, auto mutate) {
    ConsolidationConfig c = study.config;
    mutate(c);
    nearby.emplace_back(field, c);
  };
  // One neighbour per window field and per MachineConfig value the
  // simulator reads (every field but the tracer).
  add("min_window_sec", [](auto& c) { c.min_window_sec = 0.5000001; });
  add("max_window_sec", [](auto& c) { c.max_window_sec += 1e-9; });
  add("num_cores", [](auto& c) { c.machine.num_cores += 1; });
  add("freq_hz", [](auto& c) { c.machine.freq_hz += 1.0; });
  add("llc.size_bytes", [](auto& c) { c.machine.llc.size_bytes += 64; });
  add("llc.ways", [](auto& c) { c.machine.llc.ways += 1; });
  add("llc.line_bytes", [](auto& c) { c.machine.llc.line_bytes *= 2; });
  add("link capacity", [](auto& c) {
    c.machine.link.capacity_bytes_per_sec += 1.0;
  });
  add("link base latency", [](auto& c) {
    c.machine.link.base_latency_cycles += 1e-6;
  });
  add("link congestion_linear", [](auto& c) {
    c.machine.link.congestion_linear += 1e-9;
  });
  add("link congestion_amplitude", [](auto& c) {
    c.machine.link.congestion_amplitude += 1e-9;
  });
  add("link congestion_exponent", [](auto& c) {
    c.machine.link.congestion_exponent += 1e-9;
  });
  add("llc_hit_latency_cycles", [](auto& c) {
    c.machine.llc_hit_latency_cycles += 1e-6;
  });
  add("uncore_contention_coeff", [](auto& c) {
    c.machine.uncore_contention_coeff += 1e-9;
  });
  add("uncore_access_ref_per_sec", [](auto& c) {
    c.machine.uncore_access_ref_per_sec += 1.0;
  });
  add("mlp_squeeze", [](auto& c) { c.machine.mlp_squeeze += 1e-9; });
  add("quantum_sec", [](auto& c) { c.machine.quantum_sec *= 1.0000001; });
  add("fixed_point_rounds", [](auto& c) { c.machine.fixed_point_rounds += 1; });
  add("occupancy max_characteristic_time_sec", [](auto& c) {
    c.machine.occupancy.max_characteristic_time_sec *= 2.0;
  });
  for (const auto& [field, config] : nearby) {
    EXPECT_FALSE(load_baseline_cache(path, catalog, config).has_value())
        << "cache reused across a " << field << " change";
  }
  std::remove(path.c_str());
}

TEST(BaselineCache, ServesTheMbaEnabledConfig) {
  // UM and CT never throttle, so enable_mba is not a study input:
  // ablation_dicer (MBA exposed) reuses the study fig1 cached.
  const std::string path = test::unique_temp_path("baseline_mba.csv");
  const auto& catalog = sim::default_catalog();
  auto study = synthetic_study();
  study.config = ConsolidationConfig{};
  save_baseline_cache(path, study, catalog);
  ConsolidationConfig mba = study.config;
  mba.enable_mba = true;
  EXPECT_TRUE(load_baseline_cache(path, catalog, mba).has_value());
  std::remove(path.c_str());
}

TEST(CatalogFingerprint, CoversEveryFieldTheSimulatorReads) {
  const auto& base = sim::default_catalog().profiles();
  const std::vector<sim::AppProfile> profiles(base.begin(), base.begin() + 3);
  const auto fingerprint = [](const std::vector<sim::AppProfile>& ps) {
    return catalog_fingerprint(sim::AppCatalog(ps));
  };
  const std::uint64_t reference = fingerprint(profiles);
  EXPECT_EQ(fingerprint(profiles), reference);

  using Mutation = std::function<void(sim::AppPhase&)>;
  auto with_component = [](const std::function<void(sim::MrcComponent&)>& f) {
    return [f](sim::AppPhase& ph) {
      auto comps = ph.mrc.components();
      ASSERT_FALSE(comps.empty());
      f(comps.back());
      ph.mrc = sim::MissRatioCurve(ph.mrc.floor(), comps);
    };
  };
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"wb_ratio", [](sim::AppPhase& ph) { ph.wb_ratio += 0.01; }},
      {"instructions", [](sim::AppPhase& ph) { ph.instructions += 1.0; }},
      {"api", [](sim::AppPhase& ph) { ph.api *= 1.01; }},
      {"cpi_core", [](sim::AppPhase& ph) { ph.cpi_core += 0.01; }},
      {"mlp", [](sim::AppPhase& ph) { ph.mlp += 0.01; }},
      {"mrc weight",
       with_component([](sim::MrcComponent& c) { c.weight *= 0.99; })},
      {"mrc ws_bytes",
       with_component([](sim::MrcComponent& c) { c.ws_bytes += 64.0; })},
      {"mrc shape",
       with_component([](sim::MrcComponent& c) { c.shape += 0.5; })},
  };
  for (const auto& [field, mutate] : mutations) {
    auto changed = profiles;
    mutate(changed[1].phases.back());
    EXPECT_NE(fingerprint(changed), reference)
        << "fingerprint ignores a phase's " << field;
  }
}

TEST(BaselineCache, StaleKeyRejected) {
  const std::string path = test::unique_temp_path("baseline_stale_test.csv");
  const auto& catalog = sim::default_catalog();
  auto study = synthetic_study();
  study.config = ConsolidationConfig{};
  save_baseline_cache(path, study, catalog);
  // A different machine geometry must invalidate the cache.
  ConsolidationConfig other;
  other.machine.llc.ways = 16;
  EXPECT_FALSE(load_baseline_cache(path, catalog, other).has_value());
  std::remove(path.c_str());
}

TEST(BaselineCache, MissingFileIsNullopt) {
  EXPECT_FALSE(load_baseline_cache("/no/such/file.csv",
                                   sim::default_catalog(),
                                   ConsolidationConfig{})
                   .has_value());
}

TEST(RepresentativeSample, PaperCompositionFiftySeventy) {
  const auto study = synthetic_study();
  const auto sample = representative_sample(study, 50, 70);
  EXPECT_EQ(sample.size(), 120u);
  std::size_t ctf = 0;
  for (const auto& e : sample) ctf += e.ct_favoured() ? 1u : 0u;
  EXPECT_EQ(ctf, 50u);
}

TEST(RepresentativeSample, DeterministicForSeed) {
  const auto study = synthetic_study();
  const auto a = representative_sample(study, 50, 70, 42);
  const auto b = representative_sample(study, 50, 70, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.label(), b[i].spec.label());
  }
}

TEST(RepresentativeSample, NoDuplicates) {
  const auto study = synthetic_study();
  const auto sample = representative_sample(study, 50, 70);
  std::set<std::string> labels;
  for (const auto& e : sample) {
    EXPECT_TRUE(labels.insert(e.spec.label()).second) << e.spec.label();
  }
}

TEST(RepresentativeSample, SpansSlowdownRange) {
  // Stratification: the sample's slowdown range covers most of the pool's.
  const auto study = synthetic_study();
  const auto sample = representative_sample(study, 50, 70);
  double lo = 1e9, hi = 0.0;
  for (const auto& e : sample) {
    lo = std::min(lo, e.um_slowdown());
    hi = std::max(hi, e.um_slowdown());
  }
  EXPECT_LT(lo, 1.2);
  EXPECT_GT(hi, 2.0);
}

TEST(RepresentativeSample, RequestMoreThanPoolGetsPool) {
  BaselineStudy tiny;
  tiny.entries.push_back(entry("a", "b", 1.0, 0.8, 0.9));   // CT-F
  tiny.entries.push_back(entry("c", "d", 1.0, 0.8, 0.78));  // CT-T
  const auto sample = representative_sample(tiny, 5, 5);
  EXPECT_EQ(sample.size(), 2u);
}

// --- malformed-cache hardening: every defect is diagnosed, none aborts --

/// Writes a valid cache, then rewrites data line `row` (1-based within the
/// data section) via `mutate`, returning the path.
std::string corrupted_cache(const std::string& name,
                            const std::function<std::string(std::string)>&
                                mutate,
                            std::size_t row = 1) {
  const std::string path = test::unique_temp_path(name);
  const auto& catalog = sim::default_catalog();
  auto study = synthetic_study();
  study.config = ConsolidationConfig{};
  save_baseline_cache(path, study, catalog);

  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  lines.at(1 + row) = mutate(lines.at(1 + row));  // key + header precede

  std::ofstream out(path);
  for (const auto& l : lines) out << l << '\n';
  return path;
}

TEST(BaselineCache, BadNumberCellIsDiagnosedNotFatal) {
  // The historical bug: a non-numeric cell escaped as an uncaught
  // std::stod exception and killed the whole bench.
  const auto path = corrupted_cache("baseline_badnum_test.csv",
                                    [](std::string l) {
                                      const auto comma = l.rfind(',');
                                      return l.substr(0, comma + 1) + "oops";
                                    });
  EXPECT_FALSE(load_baseline_cache(path, sim::default_catalog(),
                                   ConsolidationConfig{})
                   .has_value());
  std::remove(path.c_str());
}

TEST(BaselineCache, PartialNumberCellIsDiagnosedNotFatal) {
  // "0.8x" must not silently truncate to 0.8.
  const auto path = corrupted_cache("baseline_partial_test.csv",
                                    [](std::string l) { return l + "x"; });
  EXPECT_FALSE(load_baseline_cache(path, sim::default_catalog(),
                                   ConsolidationConfig{})
                   .has_value());
  std::remove(path.c_str());
}

TEST(BaselineCache, TruncatedRowIsDiagnosedNotFatal) {
  const auto path = corrupted_cache(
      "baseline_truncated_test.csv",
      [](std::string l) { return l.substr(0, l.rfind(',')); }, 7);
  EXPECT_FALSE(load_baseline_cache(path, sim::default_catalog(),
                                   ConsolidationConfig{})
                   .has_value());
  std::remove(path.c_str());
}

TEST(BaselineCache, TrailingColumnsAreDiagnosedNotFatal) {
  const auto path = corrupted_cache("baseline_trailing_test.csv",
                                    [](std::string l) { return l + ",0.5"; });
  EXPECT_FALSE(load_baseline_cache(path, sim::default_catalog(),
                                   ConsolidationConfig{})
                   .has_value());
  std::remove(path.c_str());
}

TEST(BaselineStudy, ParallelCacheFileByteIdenticalToSerial) {
  // A reduced catalog (the first 6 default apps, 36 pairs): the study's
  // cache file is byte-identical at 1 and 4 workers.
  const auto& full = sim::default_catalog();
  const sim::AppCatalog catalog(std::vector<sim::AppProfile>(
      full.profiles().begin(), full.profiles().begin() + 6));
  ConsolidationConfig cfg;
  cfg.cores_used = 4;

  struct Run {
    unsigned jobs;
    std::string path;
  };
  std::vector<Run> runs = {
      {1, test::unique_temp_path("study_serial.csv")},
      {4, test::unique_temp_path("study_parallel.csv")}};
  for (const auto& r : runs) {
    std::remove(r.path.c_str());
    const auto study = baseline_study(catalog, cfg, r.path,
                                      /*force_recompute=*/false, r.jobs);
    ASSERT_EQ(study.entries.size(), 36u);
    // Entry 7 is (app 1, app 1): its UM and CT halves are exactly the
    // plain consolidations of that pair.
    const auto& e = study.entries[7];
    EXPECT_EQ(e.spec.hp, catalog.at(1).name);
    EXPECT_EQ(e.spec.be, catalog.at(1).name);
    policy::Unmanaged um;
    policy::CacheTakeover ct;
    EXPECT_EQ(e.um_hp_ipc,
              run_consolidation(catalog.at(1), catalog.at(1), um, cfg).hp_ipc);
    EXPECT_EQ(e.ct_be_ipc,
              run_consolidation(catalog.at(1), catalog.at(1), ct, cfg)
                  .be_ipc_mean);
  }
  const std::string serial = read_file(runs[0].path);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 38);
  EXPECT_EQ(read_file(runs[1].path), serial);
  for (const auto& r : runs) std::remove(r.path.c_str());
}

TEST(BaselineCache, ConcurrentSaversNeverCorruptTheCache) {
  // Concurrent saves of different studies into one path (two benches
  // sharing a cache dir) each stage a unique temp file: the last atomic
  // rename wins with one writer's complete file, never a mix, and no temp
  // file is left behind.
  const std::string dir = ::testing::TempDir();
  const std::string path = test::unique_temp_path("baseline_concurrent.csv");
  std::remove(path.c_str());
  const auto& catalog = sim::default_catalog();
  std::vector<BaselineStudy> studies(4, synthetic_study());
  std::vector<std::string> expected;
  for (std::size_t w = 0; w < studies.size(); ++w) {
    studies[w].config = ConsolidationConfig{};
    for (auto& e : studies[w].entries) e.um_be_ipc += 0.01 * double(w);
    const std::string ref = test::unique_temp_path("baseline_ref.csv");
    save_baseline_cache(ref, studies[w], catalog);
    expected.push_back(read_file(ref));
    std::remove(ref.c_str());
  }

  // Every round starts all writers together, so their saves overlap.
  std::barrier round(static_cast<std::ptrdiff_t>(studies.size()));
  std::vector<std::thread> writers;
  for (const auto& study : studies) {
    writers.emplace_back([&] {
      for (int k = 0; k < 5; ++k) {
        round.arrive_and_wait();
        save_baseline_cache(path, study, catalog);
      }
    });
  }
  for (auto& t : writers) t.join();

  const std::string installed = read_file(path);
  EXPECT_NE(std::find(expected.begin(), expected.end(), installed),
            expected.end())
      << "installed cache is not one writer's complete file";
  EXPECT_TRUE(
      load_baseline_cache(path, catalog, ConsolidationConfig{}).has_value());
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(path + ".tmp"), std::string::npos)
        << "stray temp file: " << entry.path();
  }
  std::remove(path.c_str());
}

TEST(DefaultCacheDir, EnvOverride) {
  setenv("DICER_CACHE_DIR", "/tmp/somewhere", 1);
  EXPECT_EQ(default_cache_dir(), "/tmp/somewhere");
  unsetenv("DICER_CACHE_DIR");
  EXPECT_EQ(default_cache_dir(), ".");
}

}  // namespace
}  // namespace dicer::harness

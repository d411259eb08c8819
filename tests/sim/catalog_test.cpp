#include "sim/core/catalog.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "harness/solo.hpp"

namespace dicer::sim {
namespace {

TEST(AppCatalog, HasThePapersFiftyNineWorkloads) {
  EXPECT_EQ(default_catalog().size(), 59u);
}

TEST(AppCatalog, SuiteSplitMatchesPaper) {
  // 50 SPEC CPU 2006 workloads (25 apps, 8 with multiple inputs) + 9 PARSEC.
  std::size_t spec = 0, parsec = 0;
  for (const auto& p : default_catalog().profiles()) {
    if (p.suite == "SPEC CPU 2006") ++spec;
    else if (p.suite == "PARSEC 3.0") ++parsec;
  }
  EXPECT_EQ(spec, 50u);
  EXPECT_EQ(parsec, 9u);
}

TEST(AppCatalog, NamesUnique) {
  std::set<std::string> names;
  for (const auto& p : default_catalog().profiles()) {
    EXPECT_TRUE(names.insert(p.name).second) << p.name;
  }
}

TEST(AppCatalog, PaperFigureWorkloadsPresent) {
  const auto& c = default_catalog();
  // Names that appear in the paper's figures.
  for (const char* name :
       {"milc1", "gcc_base3", "gcc_base9", "mcf1", "lbm1", "libquantum1",
        "GemsFDTD1", "omnetpp1", "Xalan1", "leslie3d1", "bwaves1", "soplex2",
        "astar1", "namd1", "povray1", "gobmk4", "bzip26", "h264ref3",
        "hmmer2", "perlbench2", "canneal1", "dedup1", "streamcluster1",
        "blackscholes1", "swaptions1", "bodytrack1", "fluidanimate1",
        "sphinx1", "zeusmp1", "tonto1", "calculix1", "sjeng1", "gromacs1"}) {
    EXPECT_TRUE(c.contains(name)) << name;
  }
}

TEST(AppCatalog, LookupByNameThrowsOnUnknown) {
  EXPECT_THROW(default_catalog().by_name("doom3"), std::out_of_range);
}

TEST(AppCatalog, AllBehaviourClassesRepresented) {
  std::map<AppClass, std::size_t> count;
  for (const auto& p : default_catalog().profiles()) ++count[p.app_class];
  EXPECT_GE(count[AppClass::kStreaming], 5u);
  EXPECT_GE(count[AppClass::kCacheHungry], 5u);
  EXPECT_GE(count[AppClass::kCacheFriendly], 10u);
  EXPECT_GE(count[AppClass::kComputeBound], 10u);
}

TEST(AppCatalog, DeterministicForSameSeed) {
  AppCatalog a(7), b(7);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).name, b.at(i).name);
    EXPECT_DOUBLE_EQ(a.at(i).total_instructions(),
                     b.at(i).total_instructions());
    EXPECT_DOUBLE_EQ(a.at(i).mean_api(), b.at(i).mean_api());
  }
}

TEST(AppCatalog, SeedVariesMultiInputFamilies) {
  AppCatalog a(7), b(8);
  // Jittered families differ across seeds.
  EXPECT_NE(a.by_name("gcc_base3").mean_api(), b.by_name("gcc_base3").mean_api());
}

TEST(AppCatalog, MultiInputFamiliesDiffer) {
  const auto& c = default_catalog();
  EXPECT_NE(c.by_name("gcc_base1").mean_api(), c.by_name("gcc_base9").mean_api());
  EXPECT_NE(c.by_name("bzip21").total_instructions(),
            c.by_name("bzip26").total_instructions());
}

class CatalogEntryCheck : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CatalogEntryCheck, ParametersWellFormed) {
  const auto& app = default_catalog().at(GetParam());
  EXPECT_FALSE(app.phases.empty());
  for (const auto& ph : app.phases) {
    EXPECT_GT(ph.instructions, 0.0) << app.name;
    EXPECT_GT(ph.cpi_core, 0.0) << app.name;
    EXPECT_GE(ph.api, 0.0) << app.name;
    EXPECT_LE(ph.api, 0.1) << app.name;
    EXPECT_GE(ph.wb_ratio, 0.0) << app.name;
    EXPECT_LE(ph.wb_ratio, 1.0) << app.name;
    EXPECT_GE(ph.mlp, 1.0) << app.name;
    EXPECT_LE(ph.mrc.ceiling(), 1.0) << app.name;
    EXPECT_GE(ph.mrc.floor(), 0.0) << app.name;
  }
}

TEST_P(CatalogEntryCheck, SoloIpcInPlausibleRange) {
  const auto& app = default_catalog().at(GetParam());
  const sim::MachineConfig mc;
  const auto solo = harness::solo_steady_state(app, mc.llc.ways, mc);
  EXPECT_GT(solo.ipc, 0.1) << app.name;
  EXPECT_LT(solo.ipc, 3.0) << app.name;
  // Solo runtimes land in a window the consolidation harness can handle.
  EXPECT_GT(solo.time_sec, 4.0) << app.name;
  EXPECT_LT(solo.time_sec, 120.0) << app.name;
}

TEST_P(CatalogEntryCheck, StreamingClassHasStreamingTraffic) {
  const auto& app = default_catalog().at(GetParam());
  if (app.app_class != AppClass::kStreaming) return;
  const sim::MachineConfig mc;
  const auto solo = harness::solo_steady_state(app, mc.llc.ways, mc);
  // A streaming app alone should consume at least ~1 GB/s of the link.
  EXPECT_GT(solo.mem_bw_bytes_per_sec, 1e9) << app.name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, CatalogEntryCheck,
                         ::testing::Range<std::size_t>(0, 59));

}  // namespace
}  // namespace dicer::sim

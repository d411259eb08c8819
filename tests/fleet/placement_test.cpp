#include "fleet/placement.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/directory.hpp"
#include "fleet/placement_index.hpp"
#include "harness/solo.hpp"
#include "sim/core/catalog.hpp"
#include "sim/machine.hpp"
#include "util/cli.hpp"

#include "../../examples/fleet_common.hpp"

namespace dicer::fleet {
namespace {

const AppDirectory& shared_directory() {
  static const AppDirectory dir(sim::default_catalog(), sim::MachineConfig{});
  return dir;
}

/// Three machines hosting HPs catalog[0..2] (or `hp` on all three), each
/// with `be_slots` BE cores and no tenants yet.
PlacementIndex three_machines(unsigned be_slots,
                              const sim::AppProfile* hp = nullptr) {
  const auto& catalog = sim::default_catalog();
  PlacementIndex index(shared_directory(), be_slots);
  for (unsigned i = 0; i < 3; ++i) {
    index.add_machine(hp != nullptr ? hp : &catalog.at(i));
  }
  return index;
}

/// Land `n` copies of `app` on machine `m`'s lowest free cores.
void crowd(PlacementIndex& index, unsigned m, unsigned n,
           const sim::AppProfile& app) {
  for (; n > 0; --n) index.admit(m, {0, &index.directory().signal(app.name)});
}

TEST(AppDirectory, SignalsAreSane) {
  const auto& dir = shared_directory();
  const auto& catalog = sim::default_catalog();
  EXPECT_EQ(dir.size(), catalog.size());
  const auto& sig = dir.signal(catalog.at(0).name);
  ASSERT_EQ(sig.ipc_by_ways.size(), dir.machine().llc.ways);
  // More ways never hurts a solo app.
  for (std::size_t w = 1; w < sig.ipc_by_ways.size(); ++w) {
    EXPECT_GE(sig.ipc_by_ways[w], sig.ipc_by_ways[w - 1] - 1e-12);
  }
  EXPECT_DOUBLE_EQ(sig.ipc_alone, sig.ipc_by_ways.back());
  EXPECT_GE(sig.ways_needed, 1u);
  EXPECT_LE(sig.ways_needed, dir.machine().llc.ways);
  // Interpolation hits the table at integer points and stays inside it.
  EXPECT_DOUBLE_EQ(sig.ipc_at_ways(3.0), sig.ipc_by_ways[2]);
  EXPECT_DOUBLE_EQ(sig.ipc_at_ways(0.5), sig.ipc_by_ways[0]);
  EXPECT_DOUBLE_EQ(sig.ipc_at_ways(99.0), sig.ipc_by_ways.back());
  const double mid = sig.ipc_at_ways(3.5);
  EXPECT_GE(mid, sig.ipc_by_ways[2] - 1e-12);
  EXPECT_LE(mid, sig.ipc_by_ways[3] + 1e-12);
  // ways_needed is read off the directory's own table, by the search Fig 2
  // runs on fresh solo solves at the default 0.95 threshold.
  for (const auto& app : catalog.profiles()) {
    EXPECT_EQ(dir.signal(app.name).ways_needed,
              harness::min_ways_for_fraction(app, 0.95, dir.machine()))
        << app.name;
  }
}

TEST(AppDirectory, UnknownAppThrows) {
  EXPECT_THROW(shared_directory().signal("no_such_app"), std::out_of_range);
}

TEST(RandomPlacement, OnlyPicksMachinesWithFreeCores) {
  RandomPlacement engine(7);
  const auto& app = sim::default_catalog().at(5);
  auto index = three_machines(2);
  crowd(index, 0, 2, app);
  crowd(index, 2, 2, app);
  for (int i = 0; i < 32; ++i) {
    const auto m = engine.place(app, index, std::nullopt);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(*m, 1u);
  }
}

TEST(RandomPlacement, RejectsWhenFull) {
  RandomPlacement engine(7);
  const auto& app = sim::default_catalog().at(0);
  auto index = three_machines(1);
  for (unsigned m = 0; m < 3; ++m) crowd(index, m, 1, app);
  EXPECT_FALSE(engine.place(app, index, std::nullopt).has_value());
}

TEST(RandomPlacement, DeterministicForSeed) {
  const auto& app = sim::default_catalog().at(5);
  auto index = three_machines(1);
  RandomPlacement a(7), b(7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.place(app, index, std::nullopt),
              b.place(app, index, std::nullopt));
  }
}

TEST(LeastLoadedPlacement, PicksFewestTenantsLowestIndex) {
  LeastLoadedPlacement engine;
  const auto& catalog = sim::default_catalog();
  auto index = three_machines(3);
  crowd(index, 0, 2, catalog.at(3));
  crowd(index, 1, 1, catalog.at(3));
  crowd(index, 2, 1, catalog.at(3));
  const auto m = engine.place(catalog.at(5), index, std::nullopt);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, 1u);  // ties at one tenant; lowest index wins
}

TEST(MrcBestFitPlacement, ScoreDropsWithCrowding) {
  const auto& dir = shared_directory();
  const AppSignal& hp = dir.signal(sim::default_catalog().at(0).name);
  const AppSignal& app = dir.signal("milc1");
  std::vector<const AppSignal*> bes{&app};
  const double empty_score = predict_efu(dir, hp, bes);
  // Pile four more copies of a cache-hungry app onto the same machine.
  bes.insert(bes.end(), 4, &app);
  const double crowded_score = predict_efu(dir, hp, bes);
  EXPECT_GT(empty_score, 0.0);
  EXPECT_LT(crowded_score, empty_score);
}

// A joining app scores bit-identically to the same app appended after the
// BEs (it is the last operand of every sum), for zero to nine BEs of
// mixed footprints; more apps than sim::kMaxCores are refused.
TEST(MrcBestFitPlacement, JoiningAppScoresLikeAnAppendedTenant) {
  const auto& dir = shared_directory();
  const auto& catalog = sim::default_catalog();
  const AppSignal& hp = dir.signal(catalog.at(4).name);
  const AppSignal& app = dir.signal(catalog.at(9).name);
  std::vector<const AppSignal*> bes;
  for (std::size_t n = 0; n < 10; ++n) {
    std::vector<const AppSignal*> with = bes;
    with.push_back(&app);
    EXPECT_EQ(predict_efu(dir, hp, bes, &app), predict_efu(dir, hp, with))
        << n << " BEs";
    bes.push_back(&dir.signal(catalog.at(7 * n % catalog.size()).name));
  }
  bes.assign(sim::kMaxCores - 1, &app);
  EXPECT_NO_THROW(predict_efu(dir, hp, bes));
  EXPECT_THROW(predict_efu(dir, hp, bes, &app), std::length_error);
}

TEST(MrcBestFitPlacement, AvoidsTheCrowdedMachine) {
  const auto& catalog = sim::default_catalog();
  MrcBestFitPlacement engine(shared_directory());
  // Identical HPs so the only difference is the tenant load.
  auto index = three_machines(4, &catalog.at(0));
  const auto& hungry = catalog.by_name("milc1");
  crowd(index, 0, 3, hungry);
  crowd(index, 2, 3, hungry);
  const auto m = engine.place(hungry, index, std::nullopt);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, 1u);
}

// The fleet front-ends' count flags reject a value that would wrap in the
// cast to unsigned (e.g. --jobs -1 asking for 4,294,967,295 workers), and
// --cores one outside [2, machine cores], with a one-line error naming the
// flag.
TEST(FleetCli, CountFlagsRejectNegativeValues) {
  {
    const char* argv[] = {"fleet_sim", "--jobs", "7", "--machines", "0"};
    const util::CliArgs args(5, argv);
    const FleetConfig fc = examples::fleet_config_from(args);
    EXPECT_EQ(fc.jobs, 7u);
    EXPECT_EQ(fc.num_machines, 0u);  // parses; the Cluster rejects it
  }
  {
    const char* argv[] = {"fleet_sim"};
    const util::CliArgs args(1, argv);
    const FleetConfig fc = examples::fleet_config_from(args);
    EXPECT_EQ(fc.num_machines, 500u);
    EXPECT_EQ(fc.migrate_after, 3u);
    EXPECT_EQ(args.get_count("epochs", 20), 20u);
  }
  for (const char* flag : {"machines", "cores", "migrate-after", "jobs"}) {
    for (const char* bad : {"-1", "-3", "4294967296"}) {
      const std::string key = std::string("--") + flag;
      const char* argv[] = {"fleet_sim", key.c_str(), bad};
      const util::CliArgs args(3, argv);
      try {
        examples::fleet_config_from(args);
        ADD_FAILURE() << key << " " << bad << " was accepted";
      } catch (const util::CliError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
      }
    }
  }
  for (const char* bad : {"1", "11"}) {  // outside [2, machine cores]
    const char* argv[] = {"fleet_sim", "--cores", bad};
    EXPECT_THROW(examples::fleet_config_from(util::CliArgs(3, argv)),
                 util::CliError);
  }
  const char* argv[] = {"fleet_sim", "--epochs", "-1"};
  const util::CliArgs args(3, argv);
  EXPECT_THROW(args.get_count("epochs", 20), util::CliError);
}

TEST(MakePlacement, KnownNamesAndErrors) {
  const auto& dir = shared_directory();
  for (const auto& name : known_placements()) {
    EXPECT_EQ(make_placement(name, dir, 1)->name(), name);
  }
  EXPECT_THROW(make_placement("bogus", dir, 1), std::invalid_argument);
}

}  // namespace
}  // namespace dicer::fleet

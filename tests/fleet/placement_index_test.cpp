#include "fleet/placement_index.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/cluster.hpp"
#include "sim/core/catalog.hpp"
#include "sim/core/trace_apps.hpp"
#include "util/rng.hpp"

namespace dicer::fleet {
namespace {

FleetConfig small_config() {
  FleetConfig fc;
  fc.num_machines = 16;
  fc.cores_used = 4;
  fc.churn.arrival_rate_per_sec = 6.0;
  fc.churn.mean_lifetime_sec = 4.0;
  fc.churn.seed = 17;
  fc.seed = 11;
  fc.jobs = 1;
  return fc;
}

/// Brute-force shadow of the index: the same tenant grid kept as plain
/// vectors, every derived quantity recomputed from scratch.
struct Shadow {
  unsigned be_slots = 0;
  std::vector<std::vector<const AppSignal*>> grid;  ///< [machine][core]

  unsigned free_cores(unsigned m) const {
    unsigned n = 0;
    for (unsigned c = 1; c <= be_slots; ++c) n += grid[m][c] ? 0u : 1u;
    return n;
  }
  std::vector<unsigned> open() const {
    std::vector<unsigned> out;
    for (unsigned m = 0; m < grid.size(); ++m) {
      if (free_cores(m) > 0) out.push_back(m);
    }
    return out;
  }
};

/// For every app in `apps` (the apps the test has queried): one scan
/// reads each live class once, each open machine's cached score equals a
/// from-scratch marginal EFU, and the decision equals the argmax of those
/// scores — the first strictly better open machine in index order.
void expect_scores_match(PlacementIndex& index, const Shadow& shadow,
                         const AppDirectory& dir,
                         const std::set<const AppSignal*>& apps) {
  std::vector<const AppSignal*> bes;
  for (const AppSignal* app : apps) {
    const std::uint64_t scans = index.class_scans();
    const auto got = index.best_fit(*app, std::nullopt);
    EXPECT_EQ(index.class_scans() - scans, index.live_classes());
    std::optional<unsigned> argmax;
    double best = 0.0;
    for (const unsigned m : shadow.open()) {
      const double score = index.marginal_efu(m, *app);
      bes.clear();
      for (unsigned c = 1; c <= shadow.be_slots; ++c) {
        if (shadow.grid[m][c]) bes.push_back(shadow.grid[m][c]);
      }
      const AppSignal& hp = index.hp(m);
      const double before = predict_efu(dir, hp, bes);
      bes.push_back(app);
      EXPECT_EQ(score, predict_efu(dir, hp, bes) - before)
          << "machine " << m << " app " << app->id;
      if (!argmax || score > best) {
        argmax = m;
        best = score;
      }
    }
    EXPECT_EQ(got, argmax) << "app " << app->id;
  }
}

/// Every queryable fact of `index` against the scratch rebuild `shadow`.
void expect_matches(const PlacementIndex& index, const Shadow& shadow) {
  ASSERT_EQ(index.size(), shadow.grid.size());
  std::uint64_t running = 0;
  for (unsigned m = 0; m < shadow.grid.size(); ++m) {
    EXPECT_EQ(index.free_cores(m), shadow.free_cores(m)) << "machine " << m;
    EXPECT_EQ(index.is_open(m), shadow.free_cores(m) > 0);
    ASSERT_EQ(index.tenants(m).size(), shadow.be_slots + 1);
    for (unsigned c = 0; c <= shadow.be_slots; ++c) {
      EXPECT_EQ(index.tenants(m)[c].sig, shadow.grid[m][c]);
      running += shadow.grid[m][c] ? 1u : 0u;
    }
  }
  EXPECT_EQ(index.tenants_running(), running);
}

// The core oracle: a randomized admit/detach churn where, after *every*
// mutation, the incrementally-maintained index agrees with a from-scratch
// rebuild on every machine's tenants (each admission on the lowest free
// core), free cores and the tenant count, and on every queried app's
// marginal-EFU scores and decision (one more app queried per step until
// all are).
TEST(PlacementIndex, MatchesScratchRebuildUnderRandomChurn) {
  const auto& catalog = sim::default_catalog();
  const sim::MachineConfig mc;
  const AppDirectory dir(catalog, mc);
  constexpr unsigned kMachines = 23;
  constexpr unsigned kBeSlots = 3;

  PlacementIndex index(dir, kBeSlots);
  Shadow shadow;
  shadow.be_slots = kBeSlots;
  util::Xoshiro256 rng(12345);
  for (unsigned m = 0; m < kMachines; ++m) {
    const auto* hp = &catalog.at(rng.below(catalog.size()));
    EXPECT_EQ(index.add_machine(hp), m);
    EXPECT_EQ(index.hp(m).profile, hp);
    shadow.grid.emplace_back(kBeSlots + 1, nullptr);
    expect_matches(index, shadow);
  }

  std::set<const AppSignal*> queried;
  for (int step = 0; step < 600; ++step) {
    const auto m = static_cast<unsigned>(rng.below(kMachines));
    const auto c = 1 + static_cast<unsigned>(rng.below(kBeSlots));
    if (shadow.grid[m][c]) {
      EXPECT_EQ(index.detach(m, c).sig, shadow.grid[m][c]);
      shadow.grid[m][c] = nullptr;
    } else {
      // (m, c) is free, so m has a free core; the lowest one is taken.
      const auto* app = &dir.signal(catalog.at(rng.below(catalog.size())).name);
      const unsigned core = index.admit(m, {0, app});
      unsigned lowest = 1;
      while (shadow.grid[m][lowest]) ++lowest;
      EXPECT_EQ(core, lowest);
      shadow.grid[m][lowest] = app;
    }
    expect_matches(index, shadow);
    expect_scores_match(index, shadow, dir, queried);
    queried.insert(&dir.signal(catalog.at(rng.below(catalog.size())).name));
  }
}

/// A streaming app with no reuse mass: footprint 0, so a class whose BEs
/// and joining app all have none splits the BE pool evenly.
sim::AppProfile zero_footprint_app(const std::string& name, double cpi) {
  sim::AppPhase phase;
  phase.name = "stream";
  phase.cpi_core = cpi;
  phase.api = 0.02;
  phase.mrc = sim::MissRatioCurve(0.9, {});
  sim::AppProfile app;
  app.name = name;
  app.suite = "test";
  app.app_class = sim::AppClass::kStreaming;
  app.phases.push_back(phase);
  return app;
}

// The index scores every app of the trace catalog, plus two zero-footprint
// apps, exactly as a from-scratch predict_efu() difference, on classes of
// 0 to 8 BEs under random churn: after every mutation, every app's score
// on every open machine, and its decision, match. The churn kills classes
// and hands their slots to new keys, and brings up classes whose apps all
// have no footprint (the even split).
TEST(PlacementIndex, ScoresEqualPredictEfuOnTheTraceCatalog) {
  sim::AppCatalog catalog = sim::trace_augmented_catalog();
  catalog.add(zero_footprint_app("stream_a", 0.5));
  catalog.add(zero_footprint_app("stream_b", 0.9));
  const AppDirectory dir(catalog, sim::MachineConfig{});
  std::set<const AppSignal*> apps;
  for (const auto& p : catalog.profiles()) apps.insert(&dir.signal(p.name));
  const AppSignal* zero[] = {&dir.signal("stream_a"), &dir.signal("stream_b")};
  ASSERT_EQ(zero[0]->footprint_bytes, 0.0);
  ASSERT_EQ(zero[1]->footprint_bytes, 0.0);
  const std::vector<const AppSignal*> pool(apps.begin(), apps.end());
  constexpr unsigned kMachines = 12;
  constexpr unsigned kBeSlots = 9;

  util::Xoshiro256 rng(2024);
  // A third of the draws are zero-footprint apps.
  const auto draw = [&] {
    return rng.below(3) == 0 ? zero[rng.below(2)] : pool[rng.below(pool.size())];
  };
  PlacementIndex index(dir, kBeSlots);
  Shadow shadow;
  shadow.be_slots = kBeSlots;
  for (unsigned m = 0; m < kMachines; ++m) {
    index.add_machine(draw()->profile);
    shadow.grid.emplace_back(kBeSlots + 1, nullptr);
  }
  std::set<unsigned> sizes;  // BE counts of the open machines scored
  bool even_split = false;
  for (int step = 0; step < 400; ++step) {
    const auto m = static_cast<unsigned>(rng.below(kMachines));
    const unsigned free = shadow.free_cores(m);
    // Admissions outnumber departures two to one, so machines fill up.
    if (free == kBeSlots || (free > 0 && rng.below(3) != 0)) {
      const unsigned core = index.admit(m, {0, draw()});
      shadow.grid[m][core] = index.tenants(m)[core].sig;
    } else {
      unsigned c = 1 + static_cast<unsigned>(rng.below(kBeSlots));
      while (!shadow.grid[m][c]) c = c % kBeSlots + 1;
      index.detach(m, c);
      shadow.grid[m][c] = nullptr;
    }
    expect_matches(index, shadow);
    expect_scores_match(index, shadow, dir, apps);
    for (const unsigned o : shadow.open()) {
      const unsigned n = kBeSlots - shadow.free_cores(o);
      sizes.insert(n);
      bool none = n > 0;
      for (unsigned c = 1; c <= kBeSlots; ++c) {
        none &= !shadow.grid[o][c] || shadow.grid[o][c]->footprint_bytes == 0.0;
      }
      even_split |= none;
    }
  }
  EXPECT_EQ(sizes, (std::set<unsigned>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_TRUE(even_split);
  // More classes were created than there are slots, so slots were reused.
  EXPECT_GT(index.classes_created(), kMachines);
}

// A class of kMaxCores - 1 BEs leaves no core for a joining app: its score
// throws std::length_error, like predict_efu() on the same operands.
TEST(PlacementIndex, ScoringPastMaxCoresThrows) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  PlacementIndex index(dir, sim::kMaxCores);
  index.add_machine(&catalog.at(0));
  const AppSignal& be = dir.signal(catalog.at(2).name);
  const AppSignal& app = dir.signal(catalog.at(3).name);
  for (std::size_t k = 0; k + 2 < sim::kMaxCores; ++k) index.admit(0, {k, &be});
  EXPECT_EQ(index.best_fit(app, std::nullopt), 0u);
  index.admit(0, {99, &be});
  std::vector<const AppSignal*> bes;
  index.tenant_signals(0, bes);
  ASSERT_EQ(bes.size(), sim::kMaxCores - 1);
  EXPECT_THROW(predict_efu(dir, index.hp(0), bes, &app), std::length_error);
  EXPECT_THROW(index.best_fit(app, std::nullopt), std::length_error);
}

TEST(PlacementIndex, ValidatesArguments) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  EXPECT_THROW(PlacementIndex(dir, 0), std::invalid_argument);

  PlacementIndex index(dir, 2);
  index.add_machine(&catalog.at(0));
  const Tenant tenant{1, &dir.signal(catalog.at(1).name)};
  EXPECT_THROW(index.free_cores(1), std::out_of_range);
  EXPECT_THROW(index.tenants(1), std::out_of_range);
  EXPECT_THROW(index.admit(1, tenant), std::out_of_range);
  EXPECT_THROW(index.admit(0, Tenant{}), std::logic_error);  // no app
  EXPECT_THROW(index.detach(0, 1), std::logic_error);  // core already free
  EXPECT_THROW(index.detach(0, 0), std::logic_error);  // the HP's core
  EXPECT_THROW(index.detach(0, 3), std::logic_error);  // no such core
  EXPECT_EQ(index.admit(0, tenant), 1u);
  EXPECT_EQ(index.admit(0, tenant), 2u);
  EXPECT_THROW(index.admit(0, tenant), std::logic_error);  // machine full
  // Scores exist only once the app has been queried.
  EXPECT_THROW(index.marginal_efu(0, *tenant.sig), std::logic_error);
  EXPECT_FALSE(index.best_fit(*tenant.sig, std::nullopt).has_value());
  EXPECT_EQ(index.marginal_efu(0, *tenant.sig),
            -std::numeric_limits<double>::infinity());
  EXPECT_THROW(index.marginal_efu(1, *tenant.sig), std::out_of_range);
}

TEST(PlacementIndex, TenantSignalsAreCoreOrdered) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  PlacementIndex index(dir, 3);
  index.add_machine(&catalog.at(0));
  const auto sig = [&](std::size_t i) { return &dir.signal(catalog.at(i).name); };
  // Admit, free core 1, admit again: the newest tenant takes core 1, and
  // the signal list must come back in core order, not admission order
  // (the operand order the MRC scorer's float sums depend on).
  EXPECT_EQ(index.admit(0, {10, sig(5), 7.5}), 1u);
  EXPECT_EQ(index.admit(0, {11, sig(6)}), 2u);
  EXPECT_EQ(index.admit(0, {12, sig(7)}), 3u);
  const Tenant gone = index.detach(0, 1);
  EXPECT_EQ(gone.id, 10u);
  EXPECT_EQ(gone.sig, sig(5));
  EXPECT_EQ(gone.depart_t_sec, 7.5);
  EXPECT_EQ(index.admit(0, {13, sig(9)}), 1u);
  std::vector<const AppSignal*> sigs;
  index.tenant_signals(0, sigs);
  EXPECT_EQ(sigs, (std::vector<const AppSignal*>{sig(9), sig(6), sig(7)}));
  EXPECT_EQ(index.tenants(0)[1].id, 13u);
  EXPECT_EQ(index.tenants_running(), 3u);
}

// Scores are cached per placement class: machines sharing (HP, core-ordered
// tenants) share one "before" and one score per app, a query scans every
// live class once, and only a class created since the app's last query is
// scored (it reads as unscored until then); a mutation that moves a
// representative, or joins an existing class, costs no score.
TEST(PlacementIndex, DirtyScoreProtocolInvalidatesOnMutation) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  PlacementIndex index(dir, 2);
  for (const std::size_t hp : {0u, 0u, 1u, 0u}) {
    index.add_machine(&catalog.at(hp));
  }
  EXPECT_EQ(index.live_classes(), 0u);  // until the first query
  const AppSignal& app = dir.signal(catalog.at(3).name);
  const AppSignal& other = dir.signal(catalog.at(4).name);
  const Tenant x{0, &dir.signal(catalog.at(2).name)};

  index.best_fit(app, std::nullopt);
  EXPECT_EQ(index.live_classes(), 2u);  // {hp 0}: 0, 1, 3; {hp 1}: 2
  EXPECT_EQ(index.classes_created(), 2u);
  EXPECT_EQ(index.class_scans(), 2u);
  EXPECT_EQ(index.efu_predictions(), 4u);  // a "before" and an "after" each
  const double d0 = index.marginal_efu(0, app);
  EXPECT_EQ(index.marginal_efu(1, app), d0);  // one class, one score
  EXPECT_EQ(index.marginal_efu(3, app), d0);
  const double d2 = index.marginal_efu(2, app);
  EXPECT_THROW(index.marginal_efu(0, other), std::logic_error);  // unqueried
  index.best_fit(app, std::nullopt);
  EXPECT_EQ(index.efu_predictions(), 4u);  // clean: cache hits
  EXPECT_EQ(index.class_scans(), 4u);
  index.best_fit(other, std::nullopt);
  EXPECT_EQ(index.efu_predictions(), 6u);  // the "befores" are shared

  // Machine 1 is not its class's representative: it leaves {hp 0}, and
  // founds {hp 0, x}, unscored until the next query.
  index.admit(1, x);
  EXPECT_EQ(index.live_classes(), 3u);
  EXPECT_EQ(index.classes_created(), 3u);
  EXPECT_EQ(index.efu_predictions(), 6u);  // a mutation scores nothing
  EXPECT_THROW(index.marginal_efu(1, app), std::logic_error);  // unscored
  EXPECT_EQ(index.marginal_efu(0, app), d0);
  index.best_fit(app, std::nullopt);
  EXPECT_EQ(index.efu_predictions(), 8u);  // the new class only
  EXPECT_EQ(index.class_scans(), 9u);
  const double dx = index.marginal_efu(1, app);
  EXPECT_EQ(index.marginal_efu(2, app), d2);
  EXPECT_THROW(index.marginal_efu(1, other), std::logic_error);

  // Machine 3 joins {hp 0, x} behind its representative: no new class.
  index.admit(3, x);
  EXPECT_EQ(index.classes_created(), 3u);
  EXPECT_EQ(index.marginal_efu(3, app), dx);

  // Machine 1 leaves: {hp 0, x}'s representative moves to 3 with no new
  // score; machine 1 rejoins {hp 0} behind machine 0.
  index.detach(1, 1);
  EXPECT_EQ(index.marginal_efu(3, app), dx);
  index.best_fit(app, std::nullopt);
  EXPECT_EQ(index.efu_predictions(), 8u);
  EXPECT_EQ(index.marginal_efu(1, app), d0);

  // Machine 3 leaves: {hp 0, x} dies, and comes back to life as a new
  // class in the recycled slot, scored afresh to the bit-identical value.
  index.detach(3, 1);
  EXPECT_EQ(index.live_classes(), 2u);
  index.best_fit(app, std::nullopt);
  EXPECT_EQ(index.efu_predictions(), 8u);
  EXPECT_EQ(index.class_scans(), 14u);
  index.admit(0, x);
  EXPECT_EQ(index.classes_created(), 4u);
  EXPECT_THROW(index.marginal_efu(0, app), std::logic_error);
  index.best_fit(app, std::nullopt);
  EXPECT_EQ(index.efu_predictions(), 10u);
  EXPECT_EQ(index.marginal_efu(0, app), dx);
}

// N identical empty machines are one class: each app scores it once, and
// ties go to the lowest index whichever app asks.
TEST(PlacementIndex, IdenticalMachinesCostOneScorePerApp) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  constexpr unsigned kMachines = 64;
  PlacementIndex index(dir, 3);
  for (unsigned m = 0; m < kMachines; ++m) index.add_machine(&catalog.at(2));
  for (std::size_t a = 0; a < 5; ++a) {
    const AppSignal& app = dir.signal(catalog.at(10 + a).name);
    EXPECT_EQ(index.best_fit(app, std::nullopt), 0u);
    EXPECT_EQ(index.efu_predictions(), 2 + a);  // one "before", then afters
  }
  EXPECT_EQ(index.live_classes(), 1u);
}

// Admitting onto a class's representative hands the role to its
// next-lowest member; detaching restores it. Neither costs a score.
TEST(PlacementIndex, AdmitOntoRepresentativeMovesItToTheNextMember) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  PlacementIndex index(dir, 1);  // one BE slot: an admit closes a machine
  for (unsigned m = 0; m < 8; ++m) index.add_machine(&catalog.at(2));
  const AppSignal& app = dir.signal(catalog.at(7).name);
  const Tenant t{0, &dir.signal(catalog.at(3).name)};
  EXPECT_EQ(index.best_fit(app, std::nullopt), 0u);
  const std::uint64_t scored = index.efu_predictions();

  index.admit(0, t);
  EXPECT_EQ(index.best_fit(app, std::nullopt), 1u);
  EXPECT_EQ(index.best_fit(app, 1u), 2u);
  index.admit(2, t);  // a non-representative closes: the tie stays at 1
  EXPECT_EQ(index.best_fit(app, std::nullopt), 1u);
  EXPECT_EQ(index.best_fit(app, 1u), 3u);
  index.detach(0, 1);
  EXPECT_EQ(index.best_fit(app, std::nullopt), 0u);
  EXPECT_EQ(index.best_fit(app, 0u), 1u);
  EXPECT_EQ(index.efu_predictions(), scored);
  EXPECT_EQ(index.classes_created(), 1u);
}

// Excluding the winning class's representative (a migration source)
// falls back to its second member, which ties it, and to the best other
// class once it has none.
TEST(PlacementIndex, ExcludedRepresentativeFallsBackToItsClassThenTheNext) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  const AppSignal& app = dir.signal(catalog.at(7).name);
  const auto gain = [&](const sim::AppProfile& hp) {
    const AppSignal& hp_sig = dir.signal(hp.name);
    return predict_efu(dir, hp_sig, {}, &app) - predict_efu(dir, hp_sig, {});
  };
  const sim::AppProfile* top = &catalog.at(0);
  const sim::AppProfile* low = &catalog.at(0);
  for (const auto& hp : catalog.profiles()) {
    if (gain(hp) > gain(*top)) top = &hp;
    if (gain(hp) < gain(*low)) low = &hp;
  }
  ASSERT_GT(gain(*top), gain(*low));

  PlacementIndex index(dir, 1);
  for (unsigned m = 0; m < 10; ++m) {
    index.add_machine(m == 5 || m == 9 ? top : low);
  }
  EXPECT_EQ(index.best_fit(app, std::nullopt), 5u);
  EXPECT_EQ(index.best_fit(app, 5u), 9u);  // the class's second member
  EXPECT_EQ(index.best_fit(app, 9u), 5u);  // not the representative
  index.admit(9, {0, &dir.signal(catalog.at(3).name)});
  EXPECT_EQ(index.best_fit(app, 5u), 0u);  // the next class
  index.admit(5, {0, &dir.signal(catalog.at(3).name)});
  EXPECT_EQ(index.best_fit(app, std::nullopt), 0u);
  EXPECT_EQ(index.best_fit(app, 0u), 1u);
}

// Two HPs the app gains exactly as much next to make two classes with
// equal leaves: the lower representative wins, and when the winner's
// representative is excluded, its class's next member still loses the
// tie to a lower-index machine of the other class.
TEST(PlacementIndex, EqualLeavesAcrossClassesGoToTheLowerIndex) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  const AppSignal& app = dir.signal(catalog.at(0).name);
  const auto gain = [&](const sim::AppProfile& hp) {
    const AppSignal& hp_sig = dir.signal(hp.name);
    return predict_efu(dir, hp_sig, {}, &app) - predict_efu(dir, hp_sig, {});
  };
  const sim::AppProfile* a = nullptr;
  const sim::AppProfile* b = nullptr;
  for (std::size_t i = 0; i < catalog.size() && !b; ++i) {
    for (std::size_t j = i + 1; j < catalog.size() && !b; ++j) {
      if (gain(catalog.at(i)) == gain(catalog.at(j))) {
        a = &catalog.at(i);
        b = &catalog.at(j);
      }
    }
  }
  ASSERT_NE(b, nullptr) << "no two HPs tie for " << app.profile->name;

  PlacementIndex index(dir, 1);
  for (const auto* hp : {a, b, a, b}) index.add_machine(hp);
  EXPECT_EQ(index.best_fit(app, std::nullopt), 0u);
  EXPECT_EQ(index.live_classes(), 2u);  // {a}: 0, 2; {b}: 1, 3
  EXPECT_EQ(index.marginal_efu(0, app), index.marginal_efu(1, app));
  EXPECT_EQ(index.best_fit(app, 0u), 1u);  // not 2, its class's next
  index.admit(1, {0, &dir.signal(catalog.at(3).name)});
  EXPECT_EQ(index.best_fit(app, 0u), 2u);  // now {a}'s next member
  index.admit(0, {0, &dir.signal(catalog.at(3).name)});
  EXPECT_EQ(index.best_fit(app, std::nullopt), 2u);
  EXPECT_EQ(index.best_fit(app, 2u), 3u);  // the other class
}

// A dead class's slot taken by a new key is scored afresh, never read as
// the old key's score.
TEST(PlacementIndex, ReusedClassSlotIsRescored) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  PlacementIndex index(dir, 2);
  index.add_machine(&catalog.at(0));  // one class, one slot
  const AppSignal& app = dir.signal(catalog.at(3).name);
  const AppSignal& be = dir.signal(catalog.at(2).name);
  index.best_fit(app, std::nullopt);
  const double empty = index.marginal_efu(0, app);
  EXPECT_EQ(index.efu_predictions(), 2u);

  index.admit(0, {0, &be});  // {hp} dies, {hp, be} takes its slot
  EXPECT_EQ(index.live_classes(), 1u);
  EXPECT_EQ(index.classes_created(), 2u);
  EXPECT_EQ(index.best_fit(app, std::nullopt), 0u);
  EXPECT_EQ(index.efu_predictions(), 4u);
  const AppSignal& hp = index.hp(0);
  const std::vector<const AppSignal*> bes{&be};
  const double want =
      predict_efu(dir, hp, bes, &app) - predict_efu(dir, hp, bes);
  EXPECT_EQ(index.marginal_efu(0, app), want);
  EXPECT_NE(want, empty);
}

// A long cluster churn run: after every epoch the live index agrees with
// the cluster's public view of itself — each machine's tenant count with
// its epoch stat, its HP with hp_of(), each occupied slot's tenant and app
// with the last accepted placement onto that (machine, core) — and the
// O(1) tenants_running counter with the per-slot count.
TEST(PlacementIndex, TracksClusterStateAcross200Epochs) {
  FleetConfig fc = small_config();
  fc.churn.arrival_rate_per_sec = 10.0;
  fc.churn.mean_lifetime_sec = 3.0;
  fc.migrate_after = 2;  // exercise the migration path too
  Cluster cluster(fc, sim::default_catalog());
  const PlacementIndex* index = cluster.placement_index();
  ASSERT_NE(index, nullptr);
  const unsigned slots = fc.cores_used - 1;
  // last[m * slots + c - 1]: the last accepted placement onto (m, c),
  // folded in from the log as it grows.
  std::vector<PlacementRecord> last(cluster.num_machines() * slots);
  std::size_t logged = 0;
  for (int e = 0; e < 200; ++e) {
    cluster.step_epoch();
    const auto& log = cluster.placement_log();
    for (; logged < log.size(); ++logged) {
      const auto& rec = log[logged];
      if (rec.accepted) last[rec.machine * slots + rec.core - 1] = rec;
    }
    const auto& stats = cluster.last_epoch_stats();
    ASSERT_EQ(index->size(), stats.size());
    std::uint64_t occupied = 0;
    for (unsigned m = 0; m < index->size(); ++m) {
      EXPECT_EQ(index->hp(m).profile, &cluster.hp_of(m)) << "machine " << m;
      unsigned tenants = 0;
      for (unsigned c = 1; c <= slots; ++c) {
        const Tenant& t = index->tenants(m)[c];
        if (t.sig == nullptr) continue;
        ++tenants;
        EXPECT_EQ(t.sig->profile->name, last[m * slots + c - 1].app)
            << "machine " << m << " core " << c;
        EXPECT_EQ(t.id, last[m * slots + c - 1].tenant_id)
            << "machine " << m << " core " << c;
      }
      EXPECT_EQ(tenants, stats[m].tenants) << "machine " << m;
      EXPECT_EQ(index->free_cores(m), slots - tenants) << "machine " << m;
      occupied += tenants;
    }
    EXPECT_EQ(cluster.tenants_running(), occupied);
  }
}

// Classes exist only for `mrc`: the first best_fit() sorts the fleet into
// them, and until then admit/detach skip class upkeep. A churning fleet
// placed by a class-blind engine never calls best_fit(), so it keeps
// no classes and scores nothing; the same fleet under `mrc` does.
TEST(PlacementIndex, ClassBlindFleetsKeepNoClasses) {
  for (const std::string engine : {"random", "least-loaded", "mrc"}) {
    FleetConfig fc = small_config();
    fc.placement = engine;
    fc.migrate_after = 2;  // excluded-source decisions too
    Cluster cluster(fc, sim::default_catalog());
    for (int e = 0; e < 40; ++e) cluster.step_epoch();
    const PlacementIndex& index = *cluster.placement_index();
    ASSERT_GT(index.mutations(), 0u) << engine;
    if (engine == "mrc") {
      EXPECT_GT(index.classes_created(), 0u);
      EXPECT_GT(index.efu_predictions(), 0u);
      continue;
    }
    EXPECT_EQ(index.classes_created(), 0u) << engine;
    EXPECT_EQ(index.live_classes(), 0u) << engine;
    EXPECT_EQ(index.efu_predictions(), 0u) << engine;
    EXPECT_EQ(index.class_scans(), 0u) << engine;
  }
}

}  // namespace
}  // namespace dicer::fleet

// A from-scratch full-scan reference of every placement engine, and the
// randomized-churn test that pins the production engines to it.
//
// The reference materialises one MachineView per machine for every
// decision and rescans all of them — the plain O(machines x tenants)
// algorithm that each engine (a scan of the index's free-core counts, or
// one scan over the live placement classes and their cached marginal-EFU
// scores) must reproduce bit for bit: the same decision, the same
// tie-break and the same RNG draws. The reference
// scores a machine by appending the app to its tenant list, so it also
// pins the index's joining-app predict_efu() to the appended operands.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fleet/directory.hpp"
#include "fleet/placement.hpp"
#include "fleet/placement_index.hpp"
#include "sim/core/catalog.hpp"
#include "util/rng.hpp"

namespace dicer::fleet {
namespace {

/// One machine's placement-relevant state, rebuilt for every decision.
struct MachineView {
  unsigned index = 0;
  const sim::AppProfile* hp = nullptr;
  std::vector<const sim::AppProfile*> tenants;  ///< running BEs, core order
  unsigned free_cores = 0;                      ///< open BE slots
};

/// Snapshot of `index`, with `exclude` reading as a full machine. Free
/// cores are recounted from the tenants, not read from the index.
std::vector<MachineView> views_of(const PlacementIndex& index,
                                  std::optional<unsigned> exclude) {
  std::vector<MachineView> out(index.size());
  for (unsigned m = 0; m < index.size(); ++m) {
    MachineView& v = out[m];
    v.index = m;
    v.hp = index.hp(m).profile;
    for (const Tenant& t : index.tenants(m)) {
      if (t.sig) v.tenants.push_back(t.sig->profile);
    }
    v.free_cores =
        exclude == m
            ? 0
            : index.be_slots() - static_cast<unsigned>(v.tenants.size());
  }
  return out;
}

/// The full-scan reference of the engine `name`, seeded like
/// make_placement(name, dir, seed).
class FullScan {
 public:
  FullScan(std::string name, const AppDirectory& dir, std::uint64_t seed)
      : name_(std::move(name)), dir_(&dir), rng_(seed) {}

  std::optional<unsigned> place(const sim::AppProfile& app,
                                const std::vector<MachineView>& views) {
    std::vector<unsigned> open;
    for (const auto& v : views) {
      if (v.free_cores > 0) open.push_back(v.index);
    }
    if (open.empty()) return std::nullopt;
    if (name_ == "random") return open[rng_.below(open.size())];

    std::optional<unsigned> best;
    if (name_ == "least-loaded") {
      std::size_t best_load = 0;
      for (const unsigned m : open) {
        if (!best || views[m].tenants.size() < best_load) {
          best = m;
          best_load = views[m].tenants.size();
        }
      }
      return best;
    }

    // `mrc`: the first strictly better marginal EFU wins, in index order.
    double best_delta = 0.0;
    for (const unsigned m : open) {
      const double d = marginal_efu(app, views[m]);
      if (!best || d > best_delta) {
        best = m;
        best_delta = d;
      }
    }
    return best;
  }

 private:
  double marginal_efu(const sim::AppProfile& app,
                      const MachineView& view) const {
    const AppSignal& hp = dir_->signal(view.hp->name);
    std::vector<const AppSignal*> bes;
    for (const auto* t : view.tenants) bes.push_back(&dir_->signal(t->name));
    const double before = predict_efu(*dir_, hp, bes);
    bes.push_back(&dir_->signal(app.name));
    return predict_efu(*dir_, hp, bes) - before;
  }

  std::string name_;
  const AppDirectory* dir_;
  util::Xoshiro256 rng_;
};

struct EnginePair {
  std::string label;
  std::unique_ptr<PlacementEngine> engine;
  FullScan oracle;
};

std::vector<EnginePair> every_engine(const AppDirectory& dir,
                                     std::uint64_t seed) {
  std::vector<EnginePair> out;
  for (const auto& name : known_placements()) {
    out.push_back(
        {name, make_placement(name, dir, seed), FullScan(name, dir, seed)});
  }
  return out;
}

/// A tenant running `app` (id and departure time are the cluster's
/// business, not the index's).
Tenant tenant_of(const AppDirectory& dir, const sim::AppProfile& app) {
  return {0, &dir.signal(app.name)};
}

/// Machines with a free BE core.
std::size_t open_machines(const PlacementIndex& index) {
  std::size_t n = 0;
  for (unsigned m = 0; m < index.size(); ++m) n += index.is_open(m);
  return n;
}

/// Admit `app` onto every free core of `machine`.
void fill(PlacementIndex& index, unsigned machine,
          const sim::AppProfile& app) {
  while (index.is_open(machine)) {
    index.admit(machine, tenant_of(index.directory(), app));
  }
}

// After every index mutation of a randomized churn — a fill past capacity,
// a drain, then balanced churn — each engine's decision for a random app,
// with and without an excluded machine, equals the full-scan reference's.
TEST(PlacementOracle, EveryEngineMatchesFullScanUnderRandomChurn) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  constexpr unsigned kMachines = 300;
  constexpr unsigned kBeSlots = 3;
  // Fill (85 % admits) until past capacity, drain, then balanced churn.
  constexpr int kPhase = 5 * static_cast<int>(kMachines);

  PlacementIndex index(dir, kBeSlots);
  util::Xoshiro256 rng(77);
  for (unsigned m = 0; m < kMachines; ++m) {
    index.add_machine(&catalog.at(rng.below(catalog.size())));
  }
  auto engines = every_engine(dir, 2024);

  unsigned occupied = 0;
  std::uint64_t rejections = 0, exclusions = 0;
  for (int step = 0; step < 3 * kPhase; ++step) {
    const std::uint64_t admit_pct =
        step < kPhase ? 85 : step < 2 * kPhase ? 15 : 50;
    if (rng.below(100) < admit_pct) {
      if (occupied < kMachines * kBeSlots) {
        for (;;) {
          const auto m = static_cast<unsigned>(rng.below(kMachines));
          if (!index.is_open(m)) continue;
          index.admit(m, tenant_of(dir, catalog.at(rng.below(catalog.size()))));
          ++occupied;
          break;
        }
      }
    } else if (occupied > 0) {
      for (;;) {
        const auto m = static_cast<unsigned>(rng.below(kMachines));
        const auto c = 1 + static_cast<unsigned>(rng.below(kBeSlots));
        if (index.tenants(m)[c].sig == nullptr) continue;
        index.detach(m, c);
        --occupied;
        break;
      }
    }

    const auto& app = catalog.at(rng.below(catalog.size()));
    std::optional<unsigned> exclude;
    if (rng.below(4) == 0) {
      exclude = static_cast<unsigned>(rng.below(kMachines));
      ++exclusions;
    }
    const auto views = views_of(index, exclude);
    for (auto& e : engines) {
      const auto got = e.engine->place(app, index, exclude);
      ASSERT_EQ(got, e.oracle.place(app, views))
          << e.label << " step " << step << " app " << app.name;
      if (!got) ++rejections;
    }
  }
  // The churn reached a full fleet and exercised exclusions.
  EXPECT_GT(rejections, 0u);
  EXPECT_GT(exclusions, 100u);

  // Edge: the only open machine is the excluded one.
  for (unsigned m = 0; m < kMachines; ++m) fill(index, m, catalog.at(0));
  index.detach(5, 2);
  const auto& app = catalog.at(1);
  for (auto& e : engines) {
    EXPECT_FALSE(e.engine->place(app, index, 5u).has_value()) << e.label;
    EXPECT_FALSE(e.oracle.place(app, views_of(index, 5u)).has_value());
    EXPECT_EQ(e.engine->place(app, index, std::nullopt), 5u) << e.label;
    EXPECT_EQ(e.oracle.place(app, views_of(index, std::nullopt)), 5u);
  }
}

/// Every engine's decision for `app` on `index` against its reference's.
void expect_every_engine_matches(std::vector<EnginePair>& engines,
                                 const sim::AppProfile& app,
                                 PlacementIndex& index,
                                 std::optional<unsigned> exclude,
                                 const std::string& what) {
  const auto views = views_of(index, exclude);
  for (auto& e : engines) {
    EXPECT_EQ(e.engine->place(app, index, exclude), e.oracle.place(app, views))
        << e.label << ": " << what;
  }
}

// Tie-breaks and range edges of the scan's argmax: a fleet of identical
// empty machines (every marginal EFU equal) must resolve to the lowest
// index, and to the next-lowest when that one is excluded, at N = 1, a
// power of two and a non-power of two, with the excluded machine at
// either end, in the middle and out of range.
TEST(PlacementOracle, ScanTieBreaksAndExclusionEdgesMatchFullScan) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  const auto& hp = catalog.at(0);
  const auto& app = catalog.at(7);
  for (const unsigned n : {1u, 2u, 16u, 37u}) {
    PlacementIndex index(dir, 2);
    for (unsigned m = 0; m < n; ++m) index.add_machine(&hp);
    auto engines = every_engine(dir, 99);
    const std::string at = "N=" + std::to_string(n);

    MrcBestFitPlacement mrc(dir);
    EXPECT_EQ(mrc.place(app, index, std::nullopt), 0u) << at;
    if (n > 1) {
      EXPECT_EQ(mrc.place(app, index, 0u), 1u) << at;
      EXPECT_EQ(mrc.place(app, index, n - 1), 0u) << at;
    } else {
      EXPECT_FALSE(mrc.place(app, index, 0u).has_value());
    }
    EXPECT_EQ(mrc.place(app, index, n), 0u) << at;  // out of range
    for (const unsigned ex : {0u, n / 2, n - 1, n, n + 5}) {
      expect_every_engine_matches(engines, app, index, ex,
                                  at + " exclude " + std::to_string(ex));
    }
    expect_every_engine_matches(engines, app, index, std::nullopt, at);

    // Load the low half: the tie among the still-empty machines moves up.
    for (unsigned m = 0; m < n / 2; ++m) {
      index.admit(m, tenant_of(dir, catalog.at(3)));
    }
    for (const unsigned ex : {0u, n / 2, n - 1, n}) {
      expect_every_engine_matches(engines, app, index, ex,
                                  at + " half loaded, exclude " +
                                      std::to_string(ex));
    }

    // Close every machine: nothing is placeable, excluded or not.
    for (unsigned m = 0; m < n; ++m) fill(index, m, catalog.at(5));
    for (const std::optional<unsigned> ex :
         {std::optional<unsigned>{}, std::optional<unsigned>{0u},
          std::optional<unsigned>{n - 1}, std::optional<unsigned>{n}}) {
      EXPECT_FALSE(mrc.place(app, index, ex).has_value()) << at;
      expect_every_engine_matches(engines, app, index, ex, at + " closed");
    }
  }
}

// A strict winner in the middle of equal machines: excluding it must fall
// back to the lowest-index tie across both ranges around it. Machines
// added after the app's first query join its classes (or found new ones,
// scored on the next query) like any other class move.
TEST(PlacementOracle, ExcludedMiddleWinnerFallsBackToTheLeftTie) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  const auto& app = catalog.at(7);
  // The HP the app gains most next to (`top`), and one it gains less next
  // to (`low`), on an otherwise empty machine.
  const auto gain = [&](const sim::AppProfile& hp) {
    const AppSignal& hp_sig = dir.signal(hp.name);
    const double alone = predict_efu(dir, hp_sig, {});
    return predict_efu(dir, hp_sig, {}, &dir.signal(app.name)) - alone;
  };
  const sim::AppProfile* top = &catalog.at(0);
  const sim::AppProfile* low = &catalog.at(0);
  for (const auto& hp : catalog.profiles()) {
    if (gain(hp) > gain(*top)) top = &hp;
    if (gain(hp) < gain(*low)) low = &hp;
  }
  ASSERT_GT(gain(*top), gain(*low));

  PlacementIndex index(dir, 2);
  MrcBestFitPlacement mrc(dir);
  for (unsigned m = 0; m < 20; ++m) index.add_machine(low);
  EXPECT_EQ(mrc.place(app, index, std::nullopt), 0u);
  fill(index, 1, catalog.at(3));  // machine 1 closes, still unqueried
  index.add_machine(top);             // machine 20
  EXPECT_EQ(mrc.place(app, index, std::nullopt), 20u);
  for (unsigned m = 21; m < 37; ++m) index.add_machine(low);
  EXPECT_EQ(mrc.place(app, index, 20u), 0u);
  EXPECT_EQ(mrc.place(app, index, 0u), 20u);
  fill(index, 0, catalog.at(3));  // machine 0 closes
  EXPECT_EQ(mrc.place(app, index, 20u), 2u);

  auto engines = every_engine(dir, 3);
  for (const unsigned ex : {0u, 1u, 20u, 36u, 37u}) {
    expect_every_engine_matches(engines, app, index, ex,
                                "exclude " + std::to_string(ex));
  }
}

// An app scored once and then left unqueried while 10 x N mutations land
// and other apps decide costs the index nothing per mutation: its next
// decision is one scan of the live classes (never more than the open
// machines), scores at most each live class once plus its "before", and
// is the reference's, with every open machine's score at its current
// marginal EFU.
TEST(PlacementOracle, UnqueriedAppCatchesUpInOneScanOfTheLiveClasses) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  constexpr unsigned kMachines = 40;
  constexpr unsigned kBeSlots = 3;
  const auto& first = catalog.at(11);
  const AppSignal& first_sig = dir.signal(first.name);

  PlacementIndex index(dir, kBeSlots);
  util::Xoshiro256 rng(6);
  for (unsigned m = 0; m < kMachines; ++m) {
    index.add_machine(&catalog.at(rng.below(catalog.size())));
  }
  MrcBestFitPlacement mrc(dir);
  FullScan oracle("mrc", dir, 0);
  mrc.place(first, index, std::nullopt);

  const std::uint64_t created = index.classes_created();
  for (unsigned step = 0; step < 10 * kMachines; ++step) {
    const auto m = static_cast<unsigned>(rng.below(kMachines));
    const auto c = 1 + static_cast<unsigned>(rng.below(kBeSlots));
    const std::uint64_t scored = index.efu_predictions();
    const std::uint64_t scanned = index.class_scans();
    if (index.tenants(m)[c].sig != nullptr) {
      index.detach(m, c);
    } else {
      index.admit(m, tenant_of(dir, catalog.at(rng.below(catalog.size()))));
    }
    ASSERT_EQ(index.efu_predictions(), scored) << "step " << step;
    ASSERT_EQ(index.class_scans(), scanned) << "step " << step;
    ASSERT_LE(index.live_classes(), open_machines(index)) << "step " << step;
    // Another app decides; the first one is never queried.
    auto other = &catalog.at(rng.below(catalog.size()));
    if (other == &first) other = &catalog.at(12);
    mrc.place(*other, index, std::nullopt);
  }
  // The churn replaced the classes many times over.
  EXPECT_GT(index.classes_created() - created, 4 * kMachines);

  const std::uint64_t scans = index.class_scans();
  const std::uint64_t predictions = index.efu_predictions();
  EXPECT_EQ(mrc.place(first, index, std::nullopt),
            oracle.place(first, views_of(index, std::nullopt)));
  EXPECT_EQ(index.class_scans() - scans, index.live_classes());
  EXPECT_LE(index.efu_predictions() - predictions, 2 * index.live_classes());

  std::vector<const AppSignal*> bes;
  for (unsigned m = 0; m < kMachines; ++m) {
    if (!index.is_open(m)) continue;
    index.tenant_signals(m, bes);
    const AppSignal& hp = index.hp(m);
    const double before = predict_efu(dir, hp, bes);
    bes.push_back(&first_sig);
    EXPECT_EQ(index.marginal_efu(m, first_sig),
              predict_efu(dir, hp, bes) - before)
        << "machine " << m;
  }
}

// Few HP apps and few tenant apps make large classes and many exact ties,
// within a class and (the three HPs give catalog app 0 the same gain on an
// empty machine) across classes: after every admit or detach, `mrc`
// decides like the full scan for a random app, with nothing excluded,
// with the scan's own winner excluded (the representative fallback) and
// with a random machine excluded.
TEST(PlacementOracle, ClassTiesMatchFullScanUnderRandomChurn) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  constexpr unsigned kMachines = 96;
  constexpr unsigned kBeSlots = 3;
  const std::vector<const sim::AppProfile*> hps{
      &catalog.at(17), &catalog.at(34), &catalog.at(36)};
  const std::vector<const sim::AppProfile*> apps{
      &catalog.at(0), &catalog.at(2), &catalog.at(7), &catalog.at(13)};
  const AppSignal& app0 = dir.signal(apps[0]->name);
  const auto gain = [&](const sim::AppProfile& hp) {
    const AppSignal& hp_sig = dir.signal(hp.name);
    return predict_efu(dir, hp_sig, {}, &app0) - predict_efu(dir, hp_sig, {});
  };
  for (const auto* hp : hps) {
    ASSERT_EQ(gain(*hp), gain(*hps[0])) << hp->name;
  }

  PlacementIndex index(dir, kBeSlots);
  util::Xoshiro256 rng(31);
  for (unsigned m = 0; m < kMachines; ++m) {
    index.add_machine(hps[rng.below(hps.size())]);
  }
  MrcBestFitPlacement mrc(dir);
  FullScan oracle("mrc", dir, 0);
  mrc.place(*apps[0], index, std::nullopt);
  EXPECT_EQ(index.live_classes(), hps.size());

  std::uint64_t fallbacks = 0;
  std::vector<const AppSignal*> winner_key, fallback_key;
  for (int step = 0; step < 3000; ++step) {
    // Drift between mostly full and mostly empty so that both closed
    // machines and large empty classes recur.
    const std::uint64_t admit_pct = (step / 500) % 2 == 0 ? 70 : 30;
    const auto m = static_cast<unsigned>(rng.below(kMachines));
    if (rng.below(100) < admit_pct) {
      if (index.is_open(m)) {
        index.admit(m, tenant_of(dir, *apps[rng.below(apps.size())]));
      }
    } else {
      const auto c = 1 + static_cast<unsigned>(rng.below(kBeSlots));
      if (index.tenants(m)[c].sig != nullptr) index.detach(m, c);
    }
    ASSERT_LE(index.live_classes(), open_machines(index));

    const auto& app = *apps[rng.below(apps.size())];
    const auto scan = oracle.place(app, views_of(index, std::nullopt));
    ASSERT_EQ(mrc.place(app, index, std::nullopt), scan) << "step " << step;
    if (scan) {
      const auto without = oracle.place(app, views_of(index, *scan));
      ASSERT_EQ(mrc.place(app, index, *scan), without) << "step " << step;
      if (without) {
        index.tenant_signals(*scan, winner_key);
        index.tenant_signals(*without, fallback_key);
        if (fallback_key == winner_key &&
            &index.hp(*without) == &index.hp(*scan)) {
          ++fallbacks;  // the same class's next member
        }
      }
    }
    const auto ex = static_cast<unsigned>(rng.below(kMachines));
    ASSERT_EQ(mrc.place(app, index, ex),
              oracle.place(app, views_of(index, ex)))
        << "step " << step << " exclude " << ex;
  }
  EXPECT_GT(fallbacks, 100u);
}

// The saturated-fleet pattern: every BE slot full, so each departure opens
// a singleton class and each fill closes one, recycling class slots
// constantly. After every departure, `mrc` decides like the full scan for
// a random app with nothing excluded, with the scan's winner excluded and
// with a random machine excluded; the arrival then lands on the winner
// unless the fleet is down to its drifting target of open slots. Each
// (class, app) pair is scored at most once, plus one "before" per class.
TEST(PlacementOracle, SaturatedSingletonClassesMatchFullScan) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  constexpr unsigned kMachines = 120;
  constexpr unsigned kBeSlots = 3;

  PlacementIndex index(dir, kBeSlots);
  util::Xoshiro256 rng(4242);
  const auto random_app = [&]() -> const sim::AppProfile& {
    return catalog.at(rng.below(catalog.size()));
  };
  for (unsigned m = 0; m < kMachines; ++m) {
    index.add_machine(&random_app());
    while (index.is_open(m)) index.admit(m, tenant_of(dir, random_app()));
  }
  MrcBestFitPlacement mrc(dir);
  FullScan oracle("mrc", dir, 0);
  EXPECT_FALSE(mrc.place(random_app(), index, std::nullopt).has_value());

  std::uint64_t winner_excluded_placed = 0;
  std::size_t max_live = 0;
  for (int step = 0; step < 3000; ++step) {
    for (;;) {
      const auto m = static_cast<unsigned>(rng.below(kMachines));
      const auto c = 1 + static_cast<unsigned>(rng.below(kBeSlots));
      if (index.tenants(m)[c].sig == nullptr) continue;
      index.detach(m, c);
      break;
    }
    const auto& app = random_app();
    const auto scan = oracle.place(app, views_of(index, std::nullopt));
    ASSERT_TRUE(scan.has_value());
    ASSERT_EQ(mrc.place(app, index, std::nullopt), scan) << "step " << step;
    const auto without = oracle.place(app, views_of(index, *scan));
    ASSERT_EQ(mrc.place(app, index, *scan), without) << "step " << step;
    if (without) ++winner_excluded_placed;
    const auto ex = static_cast<unsigned>(rng.below(kMachines));
    ASSERT_EQ(mrc.place(app, index, ex), oracle.place(app, views_of(index, ex)))
        << "step " << step << " exclude " << ex;
    max_live = std::max(max_live, index.live_classes());

    // Open slots drift between 1 and 8 in rounds of 300 steps.
    const std::uint64_t target = 1 + static_cast<unsigned>(step / 300) % 8;
    const std::uint64_t open_slots =
        std::uint64_t{kMachines} * kBeSlots - index.tenants_running();
    if (open_slots > target) index.admit(*scan, tenant_of(dir, app));
  }
  EXPECT_GT(winner_excluded_placed, 1000u);
  EXPECT_GE(max_live, 6u);
  EXPECT_GT(index.classes_created(), 1000u);
  EXPECT_LE(index.efu_predictions(),
            index.classes_created() * (catalog.size() + 1));
}

}  // namespace
}  // namespace dicer::fleet

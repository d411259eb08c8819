#include "fleet/placement_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/cluster.hpp"
#include "fleet/placement.hpp"
#include "sim/core/catalog.hpp"
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
  std::vector<std::vector<const sim::AppProfile*>> grid;  ///< [machine][core]

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
  std::optional<unsigned> least_loaded(std::optional<unsigned> excl) const {
    std::optional<unsigned> best;
    unsigned best_free = 0;
    for (unsigned m = 0; m < grid.size(); ++m) {
      if (excl && *excl == m) continue;
      const unsigned f = free_cores(m);
      if (f == 0) continue;
      if (!best || f > best_free) {
        best = m;
        best_free = f;
      }
    }
    return best;
  }
};

/// For every app in `apps` (the apps whose trees the test allocated): each
/// open machine's leaf equals a from-scratch marginal EFU, and the tree's
/// root equals the argmax of the refreshed leaves — the first strictly
/// better open machine in index order.
void expect_trees_match(PlacementIndex& index, const Shadow& shadow,
                        const AppDirectory& dir,
                        const std::set<const AppSignal*>& apps) {
  std::vector<const AppSignal*> bes;
  std::vector<metrics::IpcPair> pairs;
  for (const AppSignal* app : apps) {
    const auto root = index.best_fit(*app, std::nullopt);
    std::optional<unsigned> argmax;
    double best = 0.0;
    for (const unsigned m : shadow.open()) {
      const double leaf = index.marginal_efu(m, *app);
      bes.clear();
      for (unsigned c = 1; c <= shadow.be_slots; ++c) {
        const auto* t = shadow.grid[m][c];
        if (t) bes.push_back(&dir.signal(t->name));
      }
      const AppSignal& hp = index.hp_signal(m);
      const double before = predict_efu(dir, hp, bes, pairs);
      bes.push_back(app);
      EXPECT_EQ(leaf, predict_efu(dir, hp, bes, pairs) - before)
          << "machine " << m << " app " << app->id;
      if (!argmax || leaf > best) {
        argmax = m;
        best = leaf;
      }
    }
    EXPECT_EQ(root, argmax) << "app " << app->id;
    EXPECT_EQ(index.backlog(app->id), 0u);
  }
}

/// Every queryable fact of `index` against the scratch rebuild `shadow`.
void expect_matches(const PlacementIndex& index, const Shadow& shadow) {
  ASSERT_EQ(index.size(), shadow.grid.size());
  const auto open = shadow.open();
  EXPECT_EQ(index.open_count(), open.size());
  std::uint64_t rank = 0;
  for (unsigned m = 0; m < shadow.grid.size(); ++m) {
    EXPECT_EQ(index.free_cores(m), shadow.free_cores(m)) << "machine " << m;
    EXPECT_EQ(index.is_open(m), shadow.free_cores(m) > 0);
    EXPECT_EQ(index.open_rank(m), rank) << "machine " << m;
    if (shadow.free_cores(m) > 0) ++rank;
    for (unsigned c = 1; c <= shadow.be_slots; ++c) {
      EXPECT_EQ(index.tenant(m, c), shadow.grid[m][c]);
    }
  }
  for (std::uint64_t k = 0; k < open.size(); ++k) {
    EXPECT_EQ(index.nth_open(k), open[k]) << "rank " << k;
  }
  EXPECT_EQ(index.least_loaded(), shadow.least_loaded(std::nullopt));
  if (!shadow.grid.empty()) {
    EXPECT_EQ(index.least_loaded(0u), shadow.least_loaded(0u));
    const auto last = static_cast<unsigned>(shadow.grid.size() - 1);
    EXPECT_EQ(index.least_loaded(last), shadow.least_loaded(last));
  }
}

// The core oracle: a randomized admit/detach churn where, after *every*
// mutation, the incrementally-maintained index agrees with a from-scratch
// rebuild on every machine's tenants, the open-set order statistics, the
// least-loaded winner and every allocated marginal-EFU tree (one more app
// allocated per step until all are).
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
    EXPECT_EQ(index.hp(m), hp);
    shadow.grid.emplace_back(kBeSlots + 1, nullptr);
    expect_matches(index, shadow);
  }

  std::set<const AppSignal*> trees;
  for (int step = 0; step < 600; ++step) {
    const auto m = static_cast<unsigned>(rng.below(kMachines));
    const auto c = 1 + static_cast<unsigned>(rng.below(kBeSlots));
    if (shadow.grid[m][c]) {
      index.detach(m, c);
      shadow.grid[m][c] = nullptr;
    } else {
      const auto* app = &catalog.at(rng.below(catalog.size()));
      index.admit(m, c, app);
      shadow.grid[m][c] = app;
    }
    expect_matches(index, shadow);
    expect_trees_match(index, shadow, dir, trees);
    trees.insert(&dir.signal(catalog.at(rng.below(catalog.size())).name));
  }
}

TEST(PlacementIndex, ValidatesArguments) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  EXPECT_THROW(PlacementIndex(dir, 0), std::invalid_argument);

  PlacementIndex index(dir, 2);
  index.add_machine(&catalog.at(0));
  EXPECT_THROW(index.free_cores(1), std::out_of_range);
  EXPECT_THROW(index.admit(0, 0, &catalog.at(1)), std::logic_error);
  EXPECT_THROW(index.admit(0, 3, &catalog.at(1)), std::logic_error);
  EXPECT_THROW(index.detach(0, 1), std::logic_error);  // core already free
  index.admit(0, 1, &catalog.at(1));
  EXPECT_THROW(index.admit(0, 1, &catalog.at(2)), std::logic_error);
  EXPECT_THROW(index.nth_open(1), std::out_of_range);
}

TEST(PlacementIndex, TenantSignalsAreCoreOrdered) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  PlacementIndex index(dir, 3);
  index.add_machine(&catalog.at(0));
  // Admit out of core order; the signal list must come back in core order
  // (the operand order the MRC scorer's float sums depend on).
  index.admit(0, 3, &catalog.at(5));
  index.admit(0, 1, &catalog.at(9));
  std::vector<const AppSignal*> sigs;
  index.tenant_signals(0, sigs);
  ASSERT_EQ(sigs.size(), 2u);
  EXPECT_EQ(sigs[0], &dir.signal(catalog.at(9).name));
  EXPECT_EQ(sigs[1], &dir.signal(catalog.at(5).name));
}

// Mutations must invalidate the cached scores; untouched machines must
// keep theirs, and every app shares a machine's "before" score.
TEST(PlacementIndex, DirtyScoreProtocolInvalidatesOnMutation) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  PlacementIndex index(dir, 2);
  index.add_machine(&catalog.at(0));
  index.add_machine(&catalog.at(1));
  const AppSignal& app = dir.signal(catalog.at(3).name);

  const double d0 = index.marginal_efu(0, app);
  index.marginal_efu(1, app);
  EXPECT_EQ(index.efu_predictions(), 4u);  // a "before" and an "after" each
  EXPECT_EQ(index.marginal_efu(0, app), d0);
  EXPECT_EQ(index.efu_predictions(), 4u);  // clean: a cache hit
  index.marginal_efu(0, dir.signal(catalog.at(4).name));
  EXPECT_EQ(index.efu_predictions(), 5u);  // the "before" is shared

  index.admit(0, 1, &catalog.at(2));
  index.marginal_efu(1, app);
  EXPECT_EQ(index.efu_predictions(), 5u);  // machine 1 untouched
  index.marginal_efu(0, app);
  EXPECT_EQ(index.efu_predictions(), 7u);  // machine 0 re-scored

  // Back to the old tenant set: a fresh score, bit-identical to the first.
  index.detach(0, 1);
  EXPECT_EQ(index.marginal_efu(0, app), d0);
  EXPECT_EQ(index.efu_predictions(), 9u);
}

// A long cluster churn run: after every epoch the live index agrees with
// the cluster's public view of itself — each machine's tenant count with
// its epoch stat, its HP with hp_of(), each occupied slot's app with the
// last accepted placement onto that (machine, core) — and the O(1)
// tenants_running counter with the per-slot count.
TEST(PlacementIndex, TracksClusterStateAcross200Epochs) {
  FleetConfig fc = small_config();
  fc.churn.arrival_rate_per_sec = 10.0;
  fc.churn.mean_lifetime_sec = 3.0;
  fc.migrate_after = 2;  // exercise the migration path too
  Cluster cluster(fc, sim::default_catalog());
  const PlacementIndex* index = cluster.placement_index();
  ASSERT_NE(index, nullptr);
  const unsigned slots = fc.cores_used - 1;
  // last_app[m * slots + c - 1]: the app of the last accepted placement
  // onto (m, c), folded in from the log as it grows.
  std::vector<std::string> last_app(cluster.num_machines() * slots);
  std::size_t logged = 0;
  for (int e = 0; e < 200; ++e) {
    cluster.step_epoch();
    const auto& log = cluster.placement_log();
    for (; logged < log.size(); ++logged) {
      const auto& rec = log[logged];
      if (rec.accepted) last_app[rec.machine * slots + rec.core - 1] = rec.app;
    }
    const auto& stats = cluster.last_epoch_stats();
    ASSERT_EQ(index->size(), stats.size());
    std::uint64_t occupied = 0;
    for (unsigned m = 0; m < index->size(); ++m) {
      EXPECT_EQ(index->hp(m), &cluster.hp_of(m)) << "machine " << m;
      unsigned tenants = 0;
      for (unsigned c = 1; c <= slots; ++c) {
        const auto* t = index->tenant(m, c);
        if (t == nullptr) continue;
        ++tenants;
        EXPECT_EQ(t->name, last_app[m * slots + c - 1])
            << "machine " << m << " core " << c;
      }
      EXPECT_EQ(tenants, stats[m].tenants) << "machine " << m;
      EXPECT_EQ(index->free_cores(m), slots - tenants) << "machine " << m;
      occupied += tenants;
    }
    EXPECT_EQ(cluster.tenants_running(), occupied);
  }
}

struct RunResult {
  std::string csv;
  std::vector<PlacementRecord> log;
};

RunResult run_fleet(const FleetConfig& fc, std::uint64_t epochs) {
  Cluster cluster(fc, sim::default_catalog());
  RunResult r;
  r.csv = epoch_csv_header() + "\n";
  for (const auto& row : cluster.run(epochs)) {
    r.csv += epoch_csv_row(row) + "\n";
  }
  r.log = cluster.placement_log();
  return r;
}

void expect_same_log(const std::vector<PlacementRecord>& a,
                     const std::vector<PlacementRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tenant_id, b[i].tenant_id) << "decision " << i;
    EXPECT_EQ(a[i].epoch, b[i].epoch) << "decision " << i;
    EXPECT_EQ(a[i].app, b[i].app) << "decision " << i;
    EXPECT_EQ(a[i].accepted, b[i].accepted) << "decision " << i;
    EXPECT_EQ(a[i].migration, b[i].migration) << "decision " << i;
    EXPECT_EQ(a[i].machine, b[i].machine) << "decision " << i;
    EXPECT_EQ(a[i].core, b[i].core) << "decision " << i;
  }
}

// mrc-p2c decisions live on the single-threaded control plane: any worker
// count replays the identical log and CSV.
TEST(PlacementIndex, MrcP2cIsDeterministicAtAnyJobs) {
  FleetConfig fc = small_config();
  fc.placement = "mrc-p2c";
  fc.churn.arrival_rate_per_sec = 12.0;
  fc.jobs = 1;
  const RunResult serial = run_fleet(fc, 10);
  fc.jobs = 8;
  const RunResult sharded = run_fleet(fc, 10);
  EXPECT_EQ(serial.csv, sharded.csv);
  expect_same_log(serial.log, sharded.log);
  // And a rebuilt same-config fleet replays the same sampled candidates.
  fc.jobs = 3;
  const RunResult again = run_fleet(fc, 10);
  EXPECT_EQ(serial.csv, again.csv);
  expect_same_log(serial.log, again.log);
}

// mrc-p2c places sensibly: it admits tenants and its decisions stay
// inside the fleet.
TEST(PlacementIndex, MrcP2cPlacesWithinBounds) {
  FleetConfig fc = small_config();
  fc.placement = "mrc-p2c";
  fc.churn.arrival_rate_per_sec = 12.0;
  Cluster cluster(fc, sim::default_catalog());
  cluster.run(8);
  std::uint64_t accepted = 0;
  for (const auto& rec : cluster.placement_log()) {
    if (!rec.accepted) continue;
    ++accepted;
    EXPECT_LT(rec.machine, cluster.num_machines());
    EXPECT_GE(rec.core, 1u);
    EXPECT_LT(rec.core, fc.cores_used);
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace dicer::fleet

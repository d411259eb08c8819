// A from-scratch full-scan reference of every placement engine, and the
// randomized-churn test that pins the production engines to it.
//
// The reference materialises one MachineView per machine for every
// decision and rescans all of them — the plain O(machines x tenants)
// algorithm that each engine's indexed resolution (order statistics,
// free-core buckets, version-stamped score caches) must reproduce bit for
// bit: the same decision, the same tie-break and the same RNG draws.
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
    v.hp = index.hp(m);
    for (unsigned c = 1; c <= index.be_slots(); ++c) {
      if (const auto* t = index.tenant(m, c)) v.tenants.push_back(t);
    }
    v.free_cores =
        exclude == m
            ? 0
            : index.be_slots() - static_cast<unsigned>(v.tenants.size());
  }
  return out;
}

/// The full-scan reference of the engine `name`, seeded like
/// make_placement(name, dir, seed, choices).
class FullScan {
 public:
  FullScan(std::string name, const AppDirectory& dir, std::uint64_t seed,
           unsigned choices)
      : name_(std::move(name)), dir_(&dir), rng_(seed), choices_(choices) {}

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

    // The MRC engines: every open machine for `mrc`, d uniform draws (with
    // replacement, repeats scored once) for `mrc-p2c`; the first strictly
    // better marginal EFU wins, in candidate order.
    std::vector<unsigned> candidates;
    if (name_ == "mrc") {
      candidates = open;
    } else {
      for (unsigned j = 0; j < choices_; ++j) {
        const unsigned m = open[rng_.below(open.size())];
        if (std::find(candidates.begin(), candidates.end(), m) ==
            candidates.end()) {
          candidates.push_back(m);
        }
      }
    }
    double best_delta = 0.0;
    for (const unsigned m : candidates) {
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
    std::vector<metrics::IpcPair> pairs;
    const double before = predict_efu(*dir_, hp, bes, pairs);
    bes.push_back(&dir_->signal(app.name));
    return predict_efu(*dir_, hp, bes, pairs) - before;
  }

  std::string name_;
  const AppDirectory* dir_;
  util::Xoshiro256 rng_;
  unsigned choices_;
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
    out.push_back({name, make_placement(name, dir, seed),
                   FullScan(name, dir, seed, MrcP2cPlacement::kChoices)});
  }
  for (const unsigned d : {1u, 2u, 16u}) {
    const std::uint64_t s = seed + d;
    out.push_back({"mrc-p2c d=" + std::to_string(d),
                   make_placement("mrc-p2c", dir, s, d),
                   FullScan("mrc-p2c", dir, s, d)});
  }
  return out;
}

// After every index mutation of a randomized churn — a fill past capacity,
// a drain, then balanced churn — each engine's decision for a random app,
// with and without an excluded machine, equals the full-scan reference's.
TEST(PlacementOracle, EveryEngineMatchesFullScanUnderRandomChurn) {
  const auto& catalog = sim::default_catalog();
  const AppDirectory dir(catalog, sim::MachineConfig{});
  constexpr unsigned kMachines = 40;
  constexpr unsigned kBeSlots = 3;

  PlacementIndex index(dir, kBeSlots);
  util::Xoshiro256 rng(77);
  for (unsigned m = 0; m < kMachines; ++m) {
    index.add_machine(&catalog.at(rng.below(catalog.size())));
  }
  auto engines = every_engine(dir, 2024);

  unsigned occupied = 0;
  std::uint64_t rejections = 0, exclusions = 0;
  for (int step = 0; step < 900; ++step) {
    const std::uint64_t admit_pct = step < 300 ? 85 : step < 600 ? 15 : 50;
    if (rng.below(100) < admit_pct) {
      if (occupied < kMachines * kBeSlots) {
        for (;;) {
          const auto m = static_cast<unsigned>(rng.below(kMachines));
          const auto c = 1 + static_cast<unsigned>(rng.below(kBeSlots));
          if (index.tenant(m, c) != nullptr) continue;
          index.admit(m, c, &catalog.at(rng.below(catalog.size())));
          ++occupied;
          break;
        }
      }
    } else if (occupied > 0) {
      for (;;) {
        const auto m = static_cast<unsigned>(rng.below(kMachines));
        const auto c = 1 + static_cast<unsigned>(rng.below(kBeSlots));
        if (index.tenant(m, c) == nullptr) continue;
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
  for (unsigned m = 0; m < kMachines; ++m) {
    for (unsigned c = 1; c <= kBeSlots; ++c) {
      if (index.tenant(m, c) == nullptr) index.admit(m, c, &catalog.at(0));
    }
  }
  index.detach(5, 2);
  const auto& app = catalog.at(1);
  for (auto& e : engines) {
    EXPECT_FALSE(e.engine->place(app, index, 5u).has_value()) << e.label;
    EXPECT_FALSE(e.oracle.place(app, views_of(index, 5u)).has_value());
    EXPECT_EQ(e.engine->place(app, index, std::nullopt), 5u) << e.label;
    EXPECT_EQ(e.oracle.place(app, views_of(index, std::nullopt)), 5u);
  }
}

}  // namespace
}  // namespace dicer::fleet

// Pluggable tenant placement.
//
// When a tenant arrives, the cluster asks a PlacementEngine which machine
// it should land on. Four engines ship:
//
//   random        uniform over machines with a free BE core (seeded —
//                 deterministic — baseline for "does placement matter?")
//   least-loaded  fewest running BE tenants, ties to the lowest index
//   mrc           MRC-aware best-fit on the marginal EFU: the machine
//                 whose predicted EFU rises most (or drops least) when
//                 the tenant joins. The prediction: HP keeps its
//                 ways_needed partition, the BEs split the remainder in
//                 proportion to their MRC footprints, each app's IPC is
//                 read off its ipc-vs-ways curve, and the whole machine is
//                 discounted when predicted bandwidth demand
//                 oversubscribes the memory link (Com-CAS-style footprint
//                 packing driven by the sampled-MRC app directory). Exact
//                 over every open machine, read off the index's per-app
//                 tournament tree in O(machines touched since the app's
//                 last decision x log N).
//   mrc-p2c       power-of-d-choices over the same scorer: draws d = 5
//                 candidates uniformly from the open set via the engine's
//                 seeded RNG and scores only those — an O(d)
//                 approximation of `mrc`, deterministic for a (seed, call
//                 sequence) pair like `random`.
//
// Every engine decides off the persistent fleet::PlacementIndex in one
// serial pass: `random` and `mrc-p2c` map their draws through the index's
// open-set order statistics, `least-loaded` reads its free-core buckets,
// and both MRC engines read the index's one score cache — the leaves of
// its per-app marginal-EFU trees — so a clean machine is never re-scored.
// Ties go to the lowest machine index (the first strictly better
// candidate in index order, or in draw order for mrc-p2c). A from-scratch
// full-scan reference of all four engines lives in the tests and pins
// every decision, tie-break and RNG draw.
//
// Engines are called from the control plane's single decision thread;
// they keep internal state (RNGs, draw scratch) and stay deterministic
// for a (seed, call sequence) pair.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleet/directory.hpp"
#include "fleet/placement_index.hpp"
#include "util/rng.hpp"

namespace dicer::fleet {

class PlacementEngine {
 public:
  virtual ~PlacementEngine() = default;
  virtual std::string name() const = 0;
  /// The machine index `app` should land on, or nullopt to reject. Only
  /// machines with a free BE core are eligible, and `exclude` never is
  /// (migration sources never receive their own evictee).
  virtual std::optional<unsigned> place(const sim::AppProfile& app,
                                        PlacementIndex& index,
                                        std::optional<unsigned> exclude) = 0;
};

class RandomPlacement final : public PlacementEngine {
 public:
  explicit RandomPlacement(std::uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "random"; }
  std::optional<unsigned> place(const sim::AppProfile& app,
                                PlacementIndex& index,
                                std::optional<unsigned> exclude) override;

 private:
  util::Xoshiro256 rng_;
};

class LeastLoadedPlacement final : public PlacementEngine {
 public:
  std::string name() const override { return "least-loaded"; }
  std::optional<unsigned> place(const sim::AppProfile& app,
                                PlacementIndex& index,
                                std::optional<unsigned> exclude) override;
};

/// Best fit on the marginal EFU: the open machine whose predicted EFU
/// rises most (or drops least) when `app` joins, lowest index on ties —
/// read off the index's per-app tournament tree.
class MrcBestFitPlacement final : public PlacementEngine {
 public:
  /// `directory` must outlive the engine.
  explicit MrcBestFitPlacement(const AppDirectory& directory)
      : dir_(&directory) {}
  std::string name() const override { return "mrc"; }
  std::optional<unsigned> place(const sim::AppProfile& app,
                                PlacementIndex& index,
                                std::optional<unsigned> exclude) override;

 private:
  const AppDirectory* dir_;
};

/// Power-of-d-choices over the MRC scorer: d seeded uniform draws from the
/// open set (with replacement; repeats are scored once), best marginal EFU
/// wins with the same first-strictly-better tie-break — in draw order —
/// as `mrc` uses in index order. Decision quality degrades gracefully with
/// d while a decision costs at most d scores, where exact `mrc` re-scores
/// every machine touched since the app's last decision; the classic
/// balls-into-bins result is that d = 2 already collapses the max-load
/// tail, and d = 5 tracks full best-fit closely on fleet EFU. The fan-out
/// is configurable (FleetConfig::p2c_choices / fleet_sim --p2c-d); d = 1
/// degenerates to seeded-random placement, large d approaches full
/// best-fit at d scores per decision.
class MrcP2cPlacement final : public PlacementEngine {
 public:
  /// The shipped default fan-out.
  static constexpr unsigned kChoices = 5;

  /// Throws std::invalid_argument when choices == 0 (a zero-draw engine
  /// could never place anything).
  MrcP2cPlacement(const AppDirectory& directory, std::uint64_t seed,
                  unsigned choices = kChoices);
  std::string name() const override { return "mrc-p2c"; }
  std::optional<unsigned> place(const sim::AppProfile& app,
                                PlacementIndex& index,
                                std::optional<unsigned> exclude) override;

 private:
  const AppDirectory* dir_;
  util::Xoshiro256 rng_;
  unsigned choices_;
  std::vector<unsigned> draw_scratch_;  ///< sampled machine indices
};

/// Engine by name: "random", "least-loaded", "mrc" or "mrc-p2c". `seed`
/// feeds the seeded engines; `directory` the MRC ones; `p2c_choices` is
/// mrc-p2c's fan-out d (ignored by the other engines). Throws
/// std::invalid_argument for unknown names, or p2c_choices == 0 when the
/// engine is mrc-p2c.
std::unique_ptr<PlacementEngine> make_placement(
    const std::string& name, const AppDirectory& directory,
    std::uint64_t seed, unsigned p2c_choices = MrcP2cPlacement::kChoices);
std::vector<std::string> known_placements();

}  // namespace dicer::fleet

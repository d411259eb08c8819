// Pluggable tenant placement.
//
// When a tenant arrives, the cluster asks a PlacementEngine which machine
// it should land on. Four engines ship:
//
//   random        uniform over machines with a free BE core (seeded —
//                 deterministic — baseline for "does placement matter?")
//   least-loaded  fewest running BE tenants, ties to the lowest index
//   mrc           MRC-aware best-fit: scores every candidate machine by
//                 the EFU it would have *after* the tenant lands —
//                 HP keeps its ways_needed partition, the BEs split the
//                 remainder in proportion to their MRC footprints, each
//                 app's IPC is read off its ipc-vs-ways curve, and the
//                 whole machine is discounted when predicted bandwidth
//                 demand oversubscribes the memory link. Picks the
//                 highest post-placement EFU (Com-CAS-style footprint
//                 packing driven by the sampled-MRC app directory).
//   mrc-p2c       power-of-d-choices over the same scorer: draws d = 5
//                 candidates uniformly from the open set via the engine's
//                 seeded RNG and scores only those — the documented
//                 O(d) approximation for very large fleets, deterministic
//                 for a (seed, call sequence) pair like `random`.
//
// Every engine decides off the persistent fleet::PlacementIndex in one
// serial pass: `random` and `mrc-p2c` map their draws through the index's
// open-set order statistics, `least-loaded` reads its free-core buckets,
// and the MRC engines reuse its version-stamped score caches, so a clean
// machine is never re-scored. Ties go to the lowest machine index (the
// first strictly better candidate in index order, or in draw order for
// mrc-p2c). A from-scratch full-scan reference of all four engines lives
// in the tests and pins every decision, tie-break and RNG draw.
//
// Engines are called from the control plane's single decision thread;
// they keep internal state (RNGs, reusable scoring scratch) and stay
// deterministic for a (seed, call sequence) pair.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleet/directory.hpp"
#include "fleet/placement_index.hpp"
#include "metrics/metrics.hpp"
#include "util/rng.hpp"

namespace dicer::fleet {

/// Predicted EFU of a machine running `hp_sig`'s HP plus the BEs `bes`
/// (in core order — the floating-point sums walk them in that order). A
/// pure function of its operands; `pairs` is caller-owned scratch.
double predict_efu(const AppDirectory& dir, const AppSignal& hp_sig,
                   const std::vector<const AppSignal*>& bes,
                   std::vector<metrics::IpcPair>& pairs);

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

/// Shared MRC scoring core of both MRC engines (best-fit and p2c): the
/// marginal EFU of an app joining a machine, served from the index's
/// dirty-score caches.
class MrcScoringBase {
 protected:
  explicit MrcScoringBase(const AppDirectory& directory) : dir_(&directory) {}

  /// Marginal EFU of `app_sig` joining `machine`: predict_efu(after) minus
  /// predict_efu(before). A clean machine returns its cached "before" and
  /// per-app delta; a dirty one computes and stores them. Bit-identical to
  /// recomputation because predict_efu() is pure.
  double delta(PlacementIndex& index, unsigned machine,
               const AppSignal& app_sig);

  const AppDirectory* dir_;

 private:
  /// Reusable scoring buffers (allocation-free after warm-up).
  std::vector<const AppSignal*> bes_;
  std::vector<metrics::IpcPair> pairs_;
};

class MrcBestFitPlacement final : public PlacementEngine,
                                  private MrcScoringBase {
 public:
  /// `directory` must outlive the engine.
  explicit MrcBestFitPlacement(const AppDirectory& directory)
      : MrcScoringBase(directory) {}
  std::string name() const override { return "mrc"; }
  std::optional<unsigned> place(const sim::AppProfile& app,
                                PlacementIndex& index,
                                std::optional<unsigned> exclude) override;
};

/// Power-of-d-choices over the MRC scorer: d seeded uniform draws from the
/// open set (with replacement; repeats are scored once), best marginal EFU
/// wins with the same first-strictly-better tie-break — in draw order —
/// as `mrc` uses in index order. Decision quality degrades gracefully with
/// d while the per-arrival cost drops from O(N) to O(d); the classic
/// balls-into-bins result is that d = 2 already collapses the max-load
/// tail, and d = 5 tracks full best-fit closely on fleet EFU. The fan-out
/// is configurable (FleetConfig::p2c_choices / fleet_sim --p2c-d); d = 1
/// degenerates to seeded-random placement, large d approaches full
/// best-fit at d scores per decision.
class MrcP2cPlacement final : public PlacementEngine, private MrcScoringBase {
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

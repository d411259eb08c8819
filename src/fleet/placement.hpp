// Pluggable tenant placement.
//
// When a tenant arrives, the cluster asks a PlacementEngine which machine
// it should land on. Three engines ship:
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
//                 over every open machine: one pass over the index's
//                 live placement classes, scoring only the classes
//                 created since the app's last decision.
//
// Every engine decides off the persistent fleet::PlacementIndex in one
// serial pass: `random` and `least-loaded` scan its free-core counts in
// index order, and `mrc` reads the index's score cache — one marginal
// EFU per (placement class, app) — so a class is scored once per app.
// Ties go to the lowest machine index (the first strictly better
// candidate in index order). A from-scratch full-scan reference of all
// three engines lives in the tests and pins every decision, tie-break
// and RNG draw.
//
// Engines are called from the control plane's single decision thread;
// they keep internal state (`random`'s RNG) and stay deterministic for a
// (seed, call sequence) pair.
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
/// one scan of the index's live placement classes.
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

/// Engine by name: "random", "least-loaded" or "mrc". `seed` feeds
/// `random`; `directory` feeds `mrc`. Throws std::invalid_argument for
/// unknown names.
std::unique_ptr<PlacementEngine> make_placement(const std::string& name,
                                                const AppDirectory& directory,
                                                std::uint64_t seed);
std::vector<std::string> known_placements();

}  // namespace dicer::fleet

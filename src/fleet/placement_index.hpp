// fleet::PlacementIndex — a persistent, incrementally-maintained view of
// the fleet for placement decisions.
//
// Rebuilding a per-machine snapshot of the fleet for every arrival and
// rescanning it costs O(arrivals x machines x tenants) per epoch, the
// term that dominates a churn-heavy 10k-machine fleet. The index keeps
// per-machine slots updated in O(log N) on admit/detach instead:
//
//   - slot state: the HP signal, the core-indexed BE signal list (core
//     order is load-bearing — the MRC scorer's floating-point sums walk
//     tenants in core order, and reproducible scores need one fixed
//     operand order), and the free-core count;
//   - an order-statistics tree (Fenwick over 0/1 "has a free core" bits)
//     so `random` can draw the k-th open machine with a single
//     rng.below(open_count) without touching the other N-1 machines;
//   - free-core buckets (one ordered set per free-core count) so
//     `least-loaded` resolves as "lowest index in the highest non-empty
//     bucket" instead of a full scan;
//   - a dirty-score protocol for the MRC engines: every tenant-set
//     mutation bumps the slot's version; the cached "before" predict_efu()
//     and the per-app marginal-EFU deltas each carry the version they
//     were computed at, so a stale entry is never read and a clean
//     machine is never re-scored. predict_efu() is a pure function of
//     (HP, tenant list, app), so a cache hit returns the bit-identical
//     double a recomputation would produce.
//
// The index stores facts, not policy: engines drive the score cache via
// has_/set_ accessors and keep the prediction math (placement.cpp).
//
// Single-threaded like the rest of the control plane; `const` reads are
// safe from anywhere, mutations are not.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "fleet/directory.hpp"

namespace dicer::fleet {

class PlacementIndex {
 public:
  /// `dir` must outlive the index. `be_slots` is the number of BE cores
  /// per machine (cores_used - 1); every machine has the same capacity.
  /// Throws std::invalid_argument when be_slots == 0.
  PlacementIndex(const AppDirectory& dir, unsigned be_slots);

  /// Register the next machine (indices are assigned 0, 1, ... in call
  /// order) hosting `hp` and no tenants. Returns its index.
  unsigned add_machine(const sim::AppProfile* hp);

  /// Tenant `app` lands on `machine`'s `core` (1..be_slots). O(log N).
  void admit(unsigned machine, unsigned core, const sim::AppProfile* app);
  /// The tenant on `machine`'s `core` leaves. O(log N).
  void detach(unsigned machine, unsigned core);

  std::size_t size() const noexcept { return slots_.size(); }
  unsigned be_slots() const noexcept { return be_slots_; }
  const AppDirectory& directory() const noexcept { return *dir_; }

  const sim::AppProfile* hp(unsigned machine) const;
  const AppSignal& hp_signal(unsigned machine) const;
  unsigned free_cores(unsigned machine) const;
  bool is_open(unsigned machine) const { return free_cores(machine) > 0; }
  /// The BE tenant on `core` of `machine` (null when the core is free).
  const sim::AppProfile* tenant(unsigned machine, unsigned core) const;

  /// Core-ordered signal list of `machine`'s running BEs (the MRC
  /// scorer's operand order), written into `out`.
  void tenant_signals(unsigned machine,
                      std::vector<const AppSignal*>& out) const;

  // --- open-set order statistics (machines with >= 1 free core) ---
  std::uint64_t open_count() const noexcept;
  /// The k-th open machine in increasing index order (k in
  /// [0, open_count())). Throws std::out_of_range past the end.
  unsigned nth_open(std::uint64_t k) const;
  /// Open machines with index < `machine`.
  std::uint64_t open_rank(unsigned machine) const;

  /// Lowest-index machine with the maximum free-core count, skipping
  /// `exclude` — the least-loaded winner under uniform capacity (fewest
  /// tenants == most free cores, first-strictly-better == lowest index).
  std::optional<unsigned> least_loaded(
      std::optional<unsigned> exclude = std::nullopt) const;

  /// Monotone index-wide mutation counter: every admit/detach, on any
  /// machine, bumps it by exactly one — a deterministic count of the
  /// control plane's tenancy churn.
  std::uint64_t mutations() const noexcept { return mutations_; }

  // --- dirty-score protocol (driven by the MRC engines) ---
  /// Monotone per-machine mutation counter; every admit/detach bumps it.
  std::uint64_t version(unsigned machine) const;
  /// Whether the cached "before" predict() matches the current version.
  bool has_before(unsigned machine) const;
  double before(unsigned machine) const;
  void set_before(unsigned machine, double score);
  /// Whether the cached marginal-EFU of app `app_id` joining `machine`
  /// matches the current version.
  bool has_delta(unsigned machine, std::size_t app_id) const;
  double delta(unsigned machine, std::size_t app_id) const;
  void set_delta(unsigned machine, std::size_t app_id, double delta);

 private:
  struct Slot {
    const sim::AppProfile* hp = nullptr;
    const AppSignal* hp_sig = nullptr;
    /// Indexed by core (0 unused — core 0 is the HP); null = free slot.
    std::vector<const AppSignal*> sig_by_core;
    std::vector<const sim::AppProfile*> app_by_core;
    unsigned free_cores = 0;
    /// Bumped on every tenant-set mutation; score caches stamped with the
    /// version they were computed at are valid iff the stamps match.
    std::uint64_t version = 1;
    std::uint64_t before_version = 0;  ///< 0 = never computed
    double before = 0.0;
    /// Per-app marginal-EFU cache, indexed by AppSignal::id (allocated on
    /// first use — engines that never score a machine pay nothing).
    std::vector<double> delta;
    std::vector<std::uint64_t> delta_version;
  };

  /// Fenwick tree over the 0/1 "machine is open" bits: point update,
  /// prefix count and k-th-set-bit select, all O(log N). Grows by
  /// appending (machines are only ever added).
  class OpenBits {
   public:
    void push_back(bool open);
    void set(std::size_t i, bool open);
    std::uint64_t total() const noexcept { return total_; }
    std::uint64_t prefix(std::size_t n) const;  ///< open bits in [0, n)
    std::size_t select(std::uint64_t k) const;  ///< index of k-th open bit

   private:
    std::vector<std::uint64_t> tree_;  ///< 1-based; tree_[0] unused
    std::vector<bool> bits_;
    std::uint64_t total_ = 0;
  };

  const Slot& at(unsigned machine) const;
  Slot& at(unsigned machine);
  /// Move `machine` between free-core buckets and the open-bits tree when
  /// its free count changes from `from` to `to`.
  void rebucket(unsigned machine, unsigned from, unsigned to);

  const AppDirectory* dir_;
  unsigned be_slots_;
  std::uint64_t mutations_ = 0;
  std::vector<Slot> slots_;
  OpenBits open_;
  /// by_free_[f] = machines with exactly f free cores, f in [1, be_slots]
  /// (fully-busy machines are tracked by free_cores == 0 alone — no
  /// placement path enumerates them).
  std::vector<std::set<unsigned>> by_free_;
};

}  // namespace dicer::fleet

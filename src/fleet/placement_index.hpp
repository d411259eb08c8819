// fleet::PlacementIndex — the fleet's record of who runs where, and a
// persistent, incrementally-maintained view of it for placement decisions.
//
// The index is the one owner of fleet tenancy: the cluster admits and
// detaches tenants here and reads them back (departures, migration
// victims, the epoch reduction), so no second copy is kept in step by
// hand. Rebuilding a per-machine snapshot of the fleet for every arrival
// and rescanning it costs O(arrivals x machines x tenants) per epoch, the
// term that dominates a churn-heavy 10k-machine fleet. The index keeps
// two things up to date on admit/detach instead:
//
//   - slot state: the HP signal, the core-indexed tenant list (core order
//     is load-bearing — the MRC scorer's floating-point sums walk tenants
//     in core order, and reproducible scores need one fixed operand
//     order), and the free-core count;
//   - placement classes with a per-app score cache over them, so `mrc`
//     reads its argmax off one pass over the live classes.
//
// The class-blind engines (`random`, `least-loaded`) scan the slots'
// free-core counts in index order; neither canonical fleet runs them, so
// the index keeps no structure for them.
//
// A placement class is the key (HP signal, core-ordered BE signals) shared
// by one or more *open* machines: exactly the operands of predict_efu(),
// so every member scores the same bit-identical double. A 10k-machine
// fleet starts in one class per HP app and stays within a few hundred
// live classes. Each class keeps its members, its representative (the
// lowest-index member) and its "before" predict_efu(), computed once per
// class lifetime and shared by every app, together with the terms of
// every score of the class that do not depend on the app (the HP's pair
// and bandwidth, the BE pool, the BEs' footprint sum), so that scoring an
// app recomputes none of them. The first best_fit() sorts
// the fleet into classes; from then on admit/detach (and add_machine)
// move one machine between classes, and a closed machine belongs to none.
// So boot, and fleets placed by the class-blind engines, pay no class
// upkeep.
//
// Class slots are recycled; their count doubles as the live-class
// high-water mark needs, capped at the machine count. The live slots sit
// in a dense list (swap-removed when a class dies), and a slot gets a
// fresh generation number each time a class claims it. An app's score
// cache holds, per slot, the marginal EFU of the app joining the class
// (predict_efu() with the app minus the class's "before") and the
// generation it was computed for: 12 B per slot, allocated on the app's
// first query. best_fit() walks the live list once, scores each class
// whose generation the app has not seen (so each (class, app) pair is
// scored at most once per class lifetime), and keeps the maximum by
// higher score, then lower representative: exactly the first strictly
// better machine of an index-order scan. When the representative is the
// excluded machine (a migration source), the class competes with its
// next member, which ties it on the score, or drops out when it has
// none. A mutation costs no per-app work at all; a decision costs one
// pass over the live classes plus the scores of the classes created
// since the app's last decision.
//
// Single-threaded like the rest of the control plane; `const` reads are
// safe from anywhere, mutations are not.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "fleet/directory.hpp"

namespace dicer::fleet {

/// One running BE tenant. A null `sig` marks a free core.
struct Tenant {
  std::uint64_t id = 0;
  const AppSignal* sig = nullptr;
  double depart_t_sec = 0.0;  ///< simulated time the tenant leaves
};

class PlacementIndex {
 public:
  /// `dir` must outlive the index. `be_slots` is the number of BE cores
  /// per machine (cores_used - 1); every machine has the same capacity.
  /// Throws std::invalid_argument when be_slots == 0.
  PlacementIndex(const AppDirectory& dir, unsigned be_slots);

  /// Register the next machine (indices are assigned 0, 1, ... in call
  /// order) hosting `hp` and no tenants. Returns its index. Once classes
  /// exist the machine joins its HP's empty class like any other class
  /// move, so machines may be added after placement has started.
  unsigned add_machine(const sim::AppProfile* hp);
  /// Room for `machines` machines in all, so adding them moves nothing.
  void reserve(unsigned machines);

  /// `tenant` lands on `machine`'s lowest free BE core, which is returned.
  /// Throws std::logic_error when the machine is full or the tenant has no
  /// signal.
  unsigned admit(unsigned machine, const Tenant& tenant);
  /// The tenant on `machine`'s `core` leaves; returns it.
  Tenant detach(unsigned machine, unsigned core);

  std::size_t size() const noexcept { return slots_.size(); }
  unsigned be_slots() const noexcept { return be_slots_; }
  const AppDirectory& directory() const noexcept { return *dir_; }

  // Per-machine reads are inline (the baseline engines scan every machine
  // per decision); each throws std::out_of_range past size().
  const AppSignal& hp(unsigned machine) const { return *at(machine).hp; }
  unsigned free_cores(unsigned machine) const {
    return at(machine).free_cores;
  }
  bool is_open(unsigned machine) const { return free_cores(machine) > 0; }
  /// `machine`'s tenants indexed by core, 0..be_slots: entry 0 (the HP's
  /// core) and every free core hold a null `sig`. Valid until the next
  /// add_machine().
  std::span<const Tenant> tenants(unsigned machine) const {
    at(machine);
    return {tenants_.data() + std::size_t{machine} * (be_slots_ + 1),
            be_slots_ + 1};
  }
  /// BE tenants running fleet-wide.
  std::uint64_t tenants_running() const noexcept { return running_; }

  /// Core-ordered signal list of `machine`'s running BEs (the MRC
  /// scorer's operand order), written into `out`.
  void tenant_signals(unsigned machine,
                      std::vector<const AppSignal*>& out) const;

  /// Monotone index-wide mutation counter: every admit/detach, on any
  /// machine, bumps it by exactly one — a deterministic count of the
  /// control plane's tenancy churn.
  std::uint64_t mutations() const noexcept { return mutations_; }

  // --- placement classes and their marginal-EFU scores (read by `mrc`) ---
  /// The open machine other than `exclude` that `app` raises the most
  /// predicted EFU on (lowest index on ties), or nullopt when there is
  /// none. `exclude` may be out of range (then nothing is excluded).
  std::optional<unsigned> best_fit(const AppSignal& app,
                                   std::optional<unsigned> exclude);
  /// The marginal EFU of `app` joining `machine`: its class's cached
  /// score for the app, or -inf when the machine is closed. Throws
  /// std::logic_error before the app's first best_fit(), and when the
  /// machine's class was created after the app's last best_fit().
  double marginal_efu(unsigned machine, const AppSignal& app) const;
  /// Classes with at least one open member (0 before the first
  /// best_fit(), which classifies every machine).
  std::size_t live_classes() const noexcept { return class_of_.size(); }
  /// Monotone count of classes created (each is scored afresh).
  std::uint64_t classes_created() const noexcept { return created_; }

  /// Monotone count of predict_efu() evaluations the index has made.
  std::uint64_t efu_predictions() const noexcept { return predictions_; }
  /// Monotone count of live classes read by best_fit() scans.
  std::uint64_t class_scans() const noexcept { return scans_; }

 private:
  /// No class / no machine.
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  /// The not-yet-computed mark of a class's "before" score.
  static constexpr double kStale = std::numeric_limits<double>::quiet_NaN();

  struct Slot {
    const AppSignal* hp = nullptr;
    unsigned free_cores = 0;
    std::uint32_t cls = kNone;  ///< class slot; kNone: closed/unclassified
  };

  /// The running BEs in core order, then the HP: predict_efu()'s operands.
  using ClassKey = std::vector<const AppSignal*>;
  struct ClassKeyHash {
    std::size_t operator()(const ClassKey& key) const noexcept;
  };

  /// One class slot; live while it is on the live list.
  struct Class {
    ClassKey key;
    std::set<unsigned> members;  ///< open machines with this key
    std::uint32_t live_pos = 0;  ///< its entry in `live_`
    /// predict_efu()'s app-independent terms for the key and
    /// predict_efu(key), built together on the class's first score (once
    /// per lifetime).
    EfuOperands ops;
    double before = kStale;
  };

  /// A live class's scan entry: all best_fit() reads of it but a score.
  struct LiveClass {
    std::uint32_t slot = kNone;
    std::uint32_t gen = 0;      ///< claim number of the slot, from 1
    std::uint32_t rep = kNone;  ///< lowest member
  };

  /// One app's score cache over the class slots, empty until the app's
  /// first query. Slot s holds a score of the class of generation gen[s].
  struct AppScores {
    std::vector<double> score;
    std::vector<std::uint32_t> gen;
    bool queried = false;
  };

  const Slot& at(unsigned machine) const {
    if (machine >= slots_.size()) throw_out_of_range();
    return slots_[machine];
  }
  Slot& at(unsigned machine) {
    if (machine >= slots_.size()) throw_out_of_range();
    return slots_[machine];
  }
  [[noreturn]] static void throw_out_of_range();
  /// Machine `machine`'s tenant on `core` (no range check).
  Tenant& core_tenant(unsigned machine, unsigned core) {
    return tenants_[std::size_t{machine} * (be_slots_ + 1) + core];
  }
  /// Move `machine` out of its class and into the one its tenants and
  /// free cores now key (none when it is closed). A no-op until the
  /// first best_fit() classifies the fleet.
  void reclass(unsigned machine);
  /// A free class slot, doubling the slot count (capped at the machine
  /// count) when none is left, entered on the live list under a fresh
  /// generation with `rep` as its representative.
  std::uint32_t claim_slot(std::uint32_t rep);
  /// The marginal EFU of `app` joining live class `s` (computing the
  /// class's shared "before" on its first use).
  double score(std::uint32_t s, const AppSignal& app);

  const AppDirectory* dir_;
  unsigned be_slots_;
  std::uint64_t running_ = 0;
  std::uint64_t mutations_ = 0;
  std::uint64_t predictions_ = 0;
  std::uint64_t scans_ = 0;
  std::uint64_t created_ = 0;
  std::uint32_t gen_ = 0;  ///< the last generation handed out
  /// Machines are kept in classes; false until the first best_fit(), so
  /// boot and the class-blind engines pay no class upkeep.
  bool classed_ = false;
  std::vector<Slot> slots_;
  /// Every machine's tenants by core, be_slots + 1 per machine (core 0,
  /// the HP's, unused): machine m's start at m * (be_slots + 1).
  std::vector<Tenant> tenants_;
  std::vector<Class> classes_;  ///< by slot
  std::vector<LiveClass> live_;  ///< in no order
  std::unordered_map<ClassKey, std::uint32_t, ClassKeyHash> class_of_;
  std::vector<std::uint32_t> free_slots_;  ///< dead slots, next at back
  std::vector<AppScores> apps_;  ///< by AppSignal::id
  ClassKey key_;  ///< key scratch (allocation-free after warm-up)
};

}  // namespace dicer::fleet

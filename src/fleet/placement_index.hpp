// fleet::PlacementIndex — the fleet's record of who runs where, and a
// persistent, incrementally-maintained view of it for placement decisions.
//
// The index is the one owner of fleet tenancy: the cluster admits and
// detaches tenants here and reads them back (departures, migration
// victims, the epoch reduction), so no second copy is kept in step by
// hand. Rebuilding a per-machine snapshot of the fleet for every arrival
// and rescanning it costs O(arrivals x machines x tenants) per epoch, the
// term that dominates a churn-heavy 10k-machine fleet. The index keeps
// per-machine slots updated in O(log N) on admit/detach instead:
//
//   - slot state: the HP signal, the core-indexed tenant list (core order
//     is load-bearing — the MRC scorer's floating-point sums walk tenants
//     in core order, and reproducible scores need one fixed operand
//     order), and the free-core count;
//   - an order-statistics tree (Fenwick over 0/1 "has a free core" bits)
//     so `random` can draw the k-th open machine with a single
//     rng.below(open_count) without touching the other N-1 machines;
//   - free-core buckets (one ordered set per free-core count) so
//     `least-loaded` resolves as "lowest index in the highest non-empty
//     bucket" instead of a full scan;
//   - placement classes, and one tournament tree per app over them (the
//     `mrc` engine's score cache), so `mrc` reads its argmax off a root.
//
// A placement class is the key (HP signal, core-ordered BE signals) shared
// by one or more *open* machines: exactly the operands of predict_efu(),
// so every member scores the same bit-identical double. A 10k-machine
// fleet starts in one class per HP app and stays within a few hundred
// live classes. Each class keeps its members, its representative (the
// lowest-index member) and its "before" predict_efu(), computed once per
// class lifetime and shared by every app. The first best_fit() sorts
// the fleet into classes; from then on admit/detach (and add_machine)
// move one machine between classes, and a closed machine belongs to none.
// So boot, and fleets placed by the class-blind engines, pay no class
// upkeep.
//
// Class slots are recycled; their count doubles as the live-class
// high-water mark needs, capped at the machine count. An app's tree has
// one leaf per slot: the marginal EFU of the app joining the class
// (predict_efu() with the app minus the class's "before"), computed once
// per class lifetime. Each
// internal node holds the better of its two children's slots: higher
// leaf, then lower representative, and a dead slot loses to any live one.
// So the root's representative is exactly the first strictly better
// machine of an index-order scan. A tree is built on the app's first
// query: 13 B per slot (a double leaf, a uint32 winner, a state byte).
//
// Refresh is lazy. A mutation that creates a class queues its slot for
// scoring on every tree's backlog; one that kills a class or changes its
// representative queues only a re-fix of the slot's ancestors; one that
// does neither (a non-representative member moving to an existing class)
// queues nothing. An app's next query scores its queued new classes and
// recomputes the ancestors of its queued slots, each once, so a decision
// costs O(classes touched since the app's last query x log C). A backlog
// holds each slot at most once. Excluding the winning class's
// representative (a migration source) falls back to its next member,
// which ties it on the leaf, or to the best other class.
//
// Single-threaded like the rest of the control plane; `const` reads are
// safe from anywhere, mutations are not.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <set>
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

  /// `tenant` lands on `machine`'s lowest free BE core, which is returned.
  /// O(log N + A) for A apps with a tree. Throws std::logic_error when
  /// the machine is full or the tenant has no signal.
  unsigned admit(unsigned machine, const Tenant& tenant);
  /// The tenant on `machine`'s `core` leaves; returns it. O(log N + A).
  Tenant detach(unsigned machine, unsigned core);

  std::size_t size() const noexcept { return slots_.size(); }
  unsigned be_slots() const noexcept { return be_slots_; }
  const AppDirectory& directory() const noexcept { return *dir_; }

  const AppSignal& hp(unsigned machine) const;
  unsigned free_cores(unsigned machine) const;
  bool is_open(unsigned machine) const { return free_cores(machine) > 0; }
  /// `machine`'s tenants indexed by core, 0..be_slots: entry 0 (the HP's
  /// core) and every free core hold a null `sig`.
  const std::vector<Tenant>& tenants(unsigned machine) const;
  /// BE tenants running fleet-wide.
  std::uint64_t tenants_running() const noexcept { return running_; }

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

  // --- placement classes and marginal-EFU trees (read by `mrc`) ---
  /// The open machine other than `exclude` that `app` raises the most
  /// predicted EFU on (lowest index on ties), or nullopt when there is
  /// none. `exclude` may be out of range (then nothing is excluded).
  std::optional<unsigned> best_fit(const AppSignal& app,
                                   std::optional<unsigned> exclude);
  /// The marginal EFU of `app` joining `machine`: its class's leaf in the
  /// app's tree, or -inf when the machine is closed. Throws
  /// std::logic_error before the app's first best_fit(), and when the
  /// machine's class was created after the app's last best_fit().
  double marginal_efu(unsigned machine, const AppSignal& app) const;
  /// Class slots queued in `app_id`'s tree (at most the slot count).
  std::size_t backlog(std::size_t app_id) const;
  /// Classes with at least one open member (0 before the first
  /// best_fit(), which classifies every machine).
  std::size_t live_classes() const noexcept { return class_of_.size(); }
  /// Monotone count of classes created (each is scored afresh).
  std::uint64_t classes_created() const noexcept { return created_; }

  /// Monotone count of predict_efu() evaluations the index has made.
  std::uint64_t efu_predictions() const noexcept { return predictions_; }
  /// Monotone count of tree nodes visited: internal nodes recomputed by
  /// repairs and rebuilds, plus nodes read by excluded-winner queries.
  std::uint64_t tree_node_visits() const noexcept { return node_visits_; }

 private:
  /// No class / no machine.
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  /// The not-yet-computed mark of a class's "before" score.
  static constexpr double kStale = std::numeric_limits<double>::quiet_NaN();

  struct Slot {
    const AppSignal* hp = nullptr;
    std::vector<Tenant> tenants;  ///< by core (0 unused — core 0 is the HP)
    unsigned free_cores = 0;
    std::uint32_t cls = kNone;  ///< class slot; kNone: closed/unclassified
  };

  /// The running BEs in core order, then the HP: predict_efu()'s operands.
  using ClassKey = std::vector<const AppSignal*>;
  struct ClassKeyHash {
    std::size_t operator()(const ClassKey& key) const noexcept;
  };

  /// One class slot; dead (rep == kNone) until a key claims it.
  struct Class {
    ClassKey key;
    std::set<unsigned> members;  ///< open machines with this key
    std::uint32_t rep = kNone;   ///< lowest member
    double before = kStale;      ///< predict_efu(key), once per lifetime
  };

  /// One app's tournament tree over the class slots, unbuilt until the
  /// app's first query. Node C + s is leaf s; internal node i in [1, C)
  /// holds the better of nodes 2i and 2i + 1, so node 1 is the winner
  /// over every slot.
  struct AppTree {
    /// Marginal EFU of the app joining each slot's class, valid for live
    /// slots that are not kUnscored.
    std::vector<double> leaf;
    std::vector<std::uint32_t> win;  ///< [1, C)
    /// Slots whose class changed since the last query, each once.
    std::vector<std::uint32_t> pending;
    std::vector<std::uint8_t> state;  ///< by slot: kQueued | kUnscored
    bool built = false;
    /// The slot count grew since the last query: rebuild every node.
    bool relayout = false;
  };
  static constexpr std::uint8_t kQueued = 1;    ///< in `pending`
  static constexpr std::uint8_t kUnscored = 2;  ///< leaf not yet computed

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
  /// Move `machine` out of its class and into the one its tenants and
  /// free cores now key (none when it is closed). A no-op until the
  /// first best_fit() classifies the fleet.
  void reclass(unsigned machine);
  /// A free class slot, doubling the slot count (capped at the machine
  /// count) and growing every built tree when none is left.
  std::uint32_t claim_slot();
  /// Queue slot `s` on every built tree's backlog, for a re-fix and, when
  /// `unscored`, a fresh leaf.
  void enqueue(std::uint32_t s, bool unscored);
  /// The marginal EFU of `app` joining live class `s` (computing the
  /// class's shared "before" on its first use).
  double score(std::uint32_t s, const AppSignal& app);
  /// Score every live slot of `t` and build its winners.
  void build(AppTree& t, const AppSignal& app);
  /// Score `t`'s queued new classes and bring its winners up to date.
  void refresh(AppTree& t, const AppSignal& app);
  /// Whether slot `a` beats slot `b` in `t`: live, then higher leaf, then
  /// lower representative. kNone is a dead slot.
  bool beats(const AppTree& t, std::uint32_t a, std::uint32_t b) const;
  /// The slot winning node `node` of `t`.
  std::uint32_t winner(const AppTree& t, std::size_t node) const;
  /// Recompute internal node `i` of `t` from its children.
  void fix(AppTree& t, std::size_t i);
  /// The better of `best` and every slot in [lo, hi) of `t`.
  std::uint32_t best_in(const AppTree& t, std::size_t lo, std::size_t hi,
                        std::uint32_t best);

  const AppDirectory* dir_;
  unsigned be_slots_;
  std::uint64_t running_ = 0;
  std::uint64_t mutations_ = 0;
  std::uint64_t predictions_ = 0;
  std::uint64_t node_visits_ = 0;
  std::uint64_t created_ = 0;
  /// Machines are kept in classes; false until the first best_fit(), so
  /// boot and the class-blind engines pay no class upkeep.
  bool classed_ = false;
  std::vector<Slot> slots_;
  OpenBits open_;
  /// by_free_[f] = machines with exactly f free cores, f in [1, be_slots]
  /// (fully-busy machines are tracked by free_cores == 0 alone — no
  /// placement path enumerates them).
  std::vector<std::set<unsigned>> by_free_;
  std::vector<Class> classes_;  ///< by slot
  std::unordered_map<ClassKey, std::uint32_t, ClassKeyHash> class_of_;
  std::vector<std::uint32_t> free_slots_;  ///< dead slots, next at back
  std::vector<AppTree> trees_;  ///< by AppSignal::id
  /// Key, scoring and repair scratch (allocation-free after warm-up).
  ClassKey key_;
  std::vector<const AppSignal*> bes_;
  std::vector<metrics::IpcPair> pairs_;
  std::vector<std::size_t> repair_scratch_;
};

}  // namespace dicer::fleet

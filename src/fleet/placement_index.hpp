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
//   - one tournament tree per app over the app's marginal-EFU deltas
//     (the `mrc` engine's score cache), so `mrc` reads its argmax off a
//     root instead of scanning N machines. Leaf m holds the marginal EFU
//     of the app joining machine m — predict_efu() with the app minus the
//     machine's cached "before" predict_efu(), which every app shares —
//     or -inf when m has no free core. Each internal node holds the
//     uint32 index of the better of its two children, and ties go to the
//     lower machine index, so the root is exactly the first strictly
//     better machine of an index-order scan. A tree is built on the app's
//     first query: 12 B and a bit per machine (a double leaf, a uint32
//     winner and a "queued" flag).
//
// Refresh is lazy. admit/detach queue the touched machine, once, on every
// tree's backlog. An app's next query re-scores only its queued
// machines and recomputes the ancestors of the leaves whose value
// changed, each once, stopping wherever a node keeps its winner, so a
// decision costs at most O(machines touched since the app's last query x
// log N), and never more than a rebuild, instead of O(N). A backlog holds
// each machine at most once, so memory stays flat however long an app
// goes unqueried. predict_efu() is a pure function of (HP, tenant list,
// app), so a cached leaf is the bit-identical double a recomputation
// would produce.
//
// Single-threaded like the rest of the control plane; `const` reads are
// safe from anywhere, mutations are not.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <set>
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
  /// order) hosting `hp` and no tenants. Returns its index. Machines join
  /// before placement starts: a machine added later drops every app's
  /// tree, and the app's next query rebuilds it.
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

  // --- marginal-EFU trees (read by the `mrc` engine) ---
  /// The open machine other than `exclude` that `app` raises the most
  /// predicted EFU on (lowest index on ties), or nullopt when there is
  /// none. `exclude` may be out of range (then nothing is excluded).
  std::optional<unsigned> best_fit(const AppSignal& app,
                                   std::optional<unsigned> exclude);
  /// `app`'s leaf for `machine` as of the app's last best_fit(): the
  /// marginal EFU of the app joining it, or -inf if it was closed then.
  /// Throws std::logic_error before the app's first best_fit().
  double marginal_efu(unsigned machine, const AppSignal& app) const;
  /// Machines queued for re-scoring in `app_id`'s tree (at most N).
  std::size_t backlog(std::size_t app_id) const;

  /// Monotone count of predict_efu() evaluations the index has made.
  std::uint64_t efu_predictions() const noexcept { return predictions_; }
  /// Monotone count of tree nodes visited: internal nodes recomputed by
  /// repairs and rebuilds, plus nodes read by excluded-winner queries.
  std::uint64_t tree_node_visits() const noexcept { return node_visits_; }

 private:
  /// The stale mark of a machine's "before" score.
  static constexpr double kStale = std::numeric_limits<double>::quiet_NaN();

  struct Slot {
    const AppSignal* hp = nullptr;
    std::vector<Tenant> tenants;  ///< by core (0 unused — core 0 is the HP)
    unsigned free_cores = 0;
    /// predict_efu() of the current tenant set; NaN = stale.
    double before = kStale;
  };

  /// One app's tournament tree, empty until the app's first query builds
  /// it. Node N + m is leaf m; internal node i in [1, N) holds the better
  /// of nodes 2i and 2i + 1, so node 1 is the winner over every leaf (any
  /// N, not only powers of two, because "better" is a total order on
  /// machines).
  struct AppTree {
    /// Marginal EFU of the app joining each machine, -inf when the
    /// machine has no free core. A queued leaf keeps its old value until
    /// the next query compares the two.
    std::vector<double> leaf;
    std::vector<std::uint32_t> win;  ///< [1, N)
    /// Machines mutated since the last query, each once.
    std::vector<std::uint32_t> pending;
    std::vector<bool> queued;  ///< by machine: in `pending`
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
  /// Record a tenant-set mutation of `machine`: stale "before", backlog
  /// entries.
  void touch(unsigned machine);
  /// The marginal EFU of `app` joining `machine`: -inf for a closed
  /// machine (computing the shared "before" if it is stale).
  double score(unsigned machine, const AppSignal& app);
  /// Score every leaf of `t` and build its winners.
  void build(AppTree& t, const AppSignal& app);
  /// Re-score `t`'s backlog and bring its winners up to date.
  void refresh(AppTree& t, const AppSignal& app);
  /// Whether machine `a` beats machine `b` in `t`: higher leaf, or equal
  /// leaf and lower index.
  static bool beats(const AppTree& t, std::uint32_t a, std::uint32_t b);
  /// The machine winning node `node` of `t`.
  std::uint32_t winner(const AppTree& t, std::size_t node) const;
  /// Recompute internal node `i` of `t` from its children.
  void fix(AppTree& t, std::size_t i);
  /// The better of `best` and every machine in [lo, hi) of `t`.
  std::uint32_t best_in(const AppTree& t, std::size_t lo, std::size_t hi,
                        std::uint32_t best);

  const AppDirectory* dir_;
  unsigned be_slots_;
  std::uint64_t running_ = 0;
  std::uint64_t mutations_ = 0;
  std::uint64_t predictions_ = 0;
  std::uint64_t node_visits_ = 0;
  std::vector<Slot> slots_;
  OpenBits open_;
  /// by_free_[f] = machines with exactly f free cores, f in [1, be_slots]
  /// (fully-busy machines are tracked by free_cores == 0 alone — no
  /// placement path enumerates them).
  std::vector<std::set<unsigned>> by_free_;
  std::vector<AppTree> trees_;  ///< by AppSignal::id
  /// Scoring and repair scratch (allocation-free after warm-up).
  std::vector<const AppSignal*> bes_;
  std::vector<metrics::IpcPair> pairs_;
  std::vector<std::size_t> repair_scratch_;
};

}  // namespace dicer::fleet

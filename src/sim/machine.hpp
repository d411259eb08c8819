// The simulated server: N cores, a way-partitioned LLC, one memory link.
//
// Geometry defaults mirror the paper's testbed (Table 1): Intel Xeon
// E5-2630 v4, 10 cores at 2.2 GHz, 25 MB 20-way LLC, 68.3 Gbps memory link.
//
// Time advances in quanta (default 10 ms — 100 model steps per 1 s
// monitoring period), counted as an integer: time_sec() is the count times
// quantum_sec, exact at any horizon. Each quantum solves a coupled fixed
// point between three sub-models:
//
//   occupancy  <- competitive sharing of each way-region given miss pressure
//   bandwidth  <- per-app demand = api * miss_ratio * IPS * line * (1 + wb)
//   IPC        <- CPI = cpi_core + api * ((1-m)*lat_llc + m*lat_mem(rho)),
//                 capped by the app's achieved bandwidth share when the
//                 link is oversubscribed
//
// because occupancy depends on IPS (pressure), IPS depends on latency,
// and latency depends on everyone's bandwidth, which depends on IPS.
// The solve warm-starts from the previous quantum and runs Newton's method
// on G(x) = F(x) - x until every core's IPS is self-consistent to 1e-9
// relative. F is structured, so its Jacobian is assembled analytically
// from the values an evaluation already holds, as a diagonal plus a few
// rank-one terms: each core's miss ratio moves with its own IPS and, in
// each filling cache region, with every sharer's (through the occupancy
// model's sensitivity and the MRC's slope, and on to the core's MLP
// squeeze), and two shared scalars add one term each — the uncore hit
// latency through the total access rate, and the link latency through
// rho, which every core's misses feed. The Newton step then factors only
// a system as large as the number of those terms (Woodbury). A converged
// solve keeps the inputs of its last round, so re-solving it reproduces
// every bit. It arms a replay cache: later quanta with the same active
// apps in the same phases reuse its solution without solving.
//
// Each active core's progress counters advance in runs: while a quantum
// adds the same increments as the one before and stays inside the app's
// phase, a counter reads base + k * increment. So run_until, the one
// advance call, commits any stretch of replayed quanta in O(1), up to the
// first quantum that would leave a phase (DESIGN.md §5e); every other
// quantum goes through step(), and the bits are the same either way.
//
// A machine holds its state in two heap blocks: its cores' (one array,
// sized at construction) and its solver's (StepScratch, sized when an app
// attaches). Stepping allocates nothing (DESIGN.md §5d).
//
// The Machine knows nothing about policies or priorities: it exposes
// exactly the actuator CAT has (a fill mask per core) and the observables
// CMT/MBM/perf have (occupancy, memory traffic, instructions, cycles).
// The rdt:: layer adapts those to a pqos-like API.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>

#include "sim/cache/cache_geometry.hpp"
#include "sim/cache/occupancy_model.hpp"
#include "sim/cache/way_mask.hpp"
#include "sim/core/app_profile.hpp"
#include "sim/mem/memory_link.hpp"

namespace dicer::trace {
class Tracer;
}
namespace dicer::util {
class KeyHasher;
}

namespace dicer::sim {

/// Cores a machine may have.
inline constexpr std::size_t kMaxCores = 64;

struct MachineConfig {
  unsigned num_cores = 10;
  double freq_hz = 2.2e9;
  CacheGeometry llc{};                   ///< 25 MB, 20-way, 64 B lines
  MemoryLinkConfig link{};               ///< 68.3 Gbps
  double llc_hit_latency_cycles = 42.0;  ///< L2-miss-LLC-hit round trip
  /// Uncore (ring / LLC port) contention: the hit latency every core sees
  /// inflates with the aggregate LLC access rate,
  ///   lat_hit_eff = lat_hit * (1 + coeff * sqrt(min(total_accesses/ref, 1)))
  /// (concave: even a few busy neighbours queue on the ring, then the
  /// effect saturates).
  /// This is interference CAT cannot remove (partitioning does not reduce
  /// how often neighbours *access* the LLC) and it is the main reason the
  /// paper finds CT offering "no improvement" for ~60 % of workloads.
  double uncore_contention_coeff = 0.28;
  double uncore_access_ref_per_sec = 1.3e8;
  /// MLP collapse under cache starvation: misses to *re-used* data carry
  /// dependencies, so when an app is squeezed far above its best-case miss
  /// ratio its memory-level parallelism degrades towards serial,
  ///   mlp_eff = mlp * (1 - mlp_squeeze * excess),
  /// excess = (m - floor) / (ceiling - floor) in [0, 1]. Streaming apps
  /// (m ~ floor always) are unaffected — their overlap is by construction.
  /// This is what makes CT's one-way BEs collapse the way the paper's
  /// Fig 5/6 BE series do.
  double mlp_squeeze = 0.5;
  double quantum_sec = 0.010;
  /// Round cap of the quantum solve. A solve that reaches it unconverged
  /// keeps its last round's state and does not arm replay.
  unsigned fixed_point_rounds = 64;
  OccupancySolverConfig occupancy{};
  /// Event sink for per-quantum counters (trace::Kind::kQuantum: rho,
  /// achieved traffic, per-core IPC and LLC occupancy). Null resolves to
  /// the process-global tracer; the kind is outside the default mask, so
  /// quanta are only recorded when a consumer opts in (the timeline bench
  /// does) — the steady-state cost is one relaxed atomic load per step.
  trace::Tracer* tracer = nullptr;

  double way_bytes() const noexcept {
    return static_cast<double>(llc.way_bytes());
  }
  /// `sec` in whole quanta: the nearest count, at least one.
  std::uint64_t quanta(double sec) const noexcept;
};

/// Mix every MachineConfig value the simulator reads — all but the tracer
/// — into `h`: the machine's part of every cache key, so a config that
/// differs in any model value never reads another config's results.
void hash_config(util::KeyHasher& h, const MachineConfig& config);

/// Counters for the convergence-aware quantum solve. `quanta` splits into
/// `replays` (served from the steady-state cache) and `solves` (ran the
/// fixed point); solves split into converged and capped exits; the
/// histogram records how many rounds each solve used. Invalidation causes
/// count only drops of an *armed* replay cache, by who dropped it.
struct SolverStats {
  /// Histogram buckets: the last one counts every solve of at least that
  /// many rounds, whatever the round cap. A fleet keeps two copies per
  /// machine, so the size is fixed small.
  static constexpr std::size_t kRoundsBuckets = 8;

  std::uint64_t quanta = 0;   ///< step() calls with >= 1 active core
  std::uint64_t replays = 0;  ///< quanta replayed without solving
  std::uint64_t solves = 0;   ///< quanta that ran the fixed point
  std::uint64_t stable_solves = 0;    ///< converged (armed replay)
  std::uint64_t unstable_solves = 0;  ///< hit the round cap unconverged
  std::uint64_t invalidations_actuator = 0;    ///< attach/detach/mask/throttle
  std::uint64_t invalidations_fingerprint = 0; ///< phase / active-set drift
  /// Rounds used per solve, at r-1.
  std::array<std::uint64_t, kRoundsBuckets> rounds_hist{};
  /// Rounds the last bucket's solves used beyond kRoundsBuckets each, so
  /// total_rounds() stays exact.
  std::uint64_t rounds_past_hist = 0;

  /// Accumulate `other` into this, bucket by bucket.
  void merge(const SolverStats& other);
  /// Sum of rounds over all solves.
  std::uint64_t total_rounds() const noexcept;
};

/// Cumulative per-core counters, in hardware-counter style: monitors take
/// deltas, the machine never resets them.
struct CoreTelemetry {
  double instructions = 0.0;     ///< retired
  double active_cycles = 0.0;    ///< cycles with an app attached
  double mem_bytes = 0.0;        ///< achieved memory traffic
  double occupancy_bytes = 0.0;  ///< current LLC holding (state, not counter)
  std::uint64_t completions = 0; ///< whole-app runs finished
  double last_quantum_ipc = 0.0; ///< diagnostic convenience
};

/// Per-phase constants hoisted out of the fixed-point rounds: built when a
/// solve slot's phase changes, not once per round of every quantum. All
/// fields but the memo are pure functions of the phase; the memo is
/// value-safe too, because mrc.miss_and_slope() is pure — a refreshed memo
/// reproduces the exact values any other slot would compute.
struct PhaseConst {
  const AppPhase* phase = nullptr;  ///< the phase these were built from
  double sf = 0.0;            ///< mrc.stream_fraction()
  double one_minus_sf = 1.0;  ///< 1 - sf, as the demand split computes it
  double floor_m = 0.0;       ///< mrc.floor()
  double span_m = 1e-9;       ///< max(mrc.ceiling() - floor, 1e-9)
  /// weight_j / sum(weights), in the slot's window of the solver block;
  /// none (nfrac 0) if the sum is <= 0.
  const double* wfrac = nullptr;
  std::size_t nfrac = 0;
  double memo_occ = -1.0;     ///< last mrc.miss_and_slope() argument
  double memo_miss = 1.0;     ///< and its value (occupancies repeat in
                              ///< steady state, so a repeat skips the curve)
  double memo_slope = 0.0;    ///< and its slope dm/docc

  /// Rebuild every field for `ph`, the weight shares into `wfrac` (room
  /// for every component of `ph`).
  void build(const AppPhase& ph, double* wfrac);
};

/// One active core's run: the quanta since its progress counters last
/// went through AppRuntime::advance, all of which added the same
/// increments without leaving the app's phase. After k of them each
/// counter reads base + k * increment (Machine::write_run).
struct CounterRun {
  double retired = 0.0;       ///< AppRuntime::instructions_retired_total
  double into_phase = 0.0;    ///< instructions into the current phase
  double instructions = 0.0;  ///< CoreTelemetry counters
  double active_cycles = 0.0;
  double mem_bytes = 0.0;
  /// Per-quantum increments (ips * dt, achieved bytes/s * dt). NaN until
  /// a quantum starts the run, so no quantum extends an empty slot.
  double d_instructions = std::numeric_limits<double>::quiet_NaN();
  double d_bytes = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t k = 0;
};

/// A machine's solver state, carved as arrays from one heap block, so
/// step() allocates nothing. Slot i holds the i-th active core's state
/// (slots follow core order): each per-slot field is its own contiguous
/// array, so the solve's loops read ips, occ, miss and demand as plain
/// vectors. pc[i] keeps its phase constants across quanta (rebuilt when
/// the slot's phase changes) and runs[i] its progress run; both are
/// dropped when a core is attached or detached. Past the slots the block
/// holds a window per slot, as wide as its app's largest phase has reuse
/// components, for the phase constants' weight shares (`wfrac`); every
/// slot's reuse components back to back (cache_demand[i].reuse views
/// them, rebuilt each evaluation); the occupancy solve's knots; and the
/// cached region decomposition with its per-region and per-sharer state.
///
/// The block is sized by Machine::attach: one slot per attached app, the
/// most reuse components their phases have, and room for the regions of
/// the layouts policies write (one shared partition, or disjoint HP and
/// BE partitions: two regions, one sharer entry per slot). It is replaced
/// by a larger one, in one allocation, only when an attach raises the
/// attached count past its slots, or when a mask layout decomposes into
/// more regions or sharer entries than it has room for (overlapping
/// partitions, which no policy here writes); it never shrinks. A machine
/// with no app holds no block.
struct StepScratch {
  std::size_t n = 0;  ///< active slots of the current solve
  unsigned* active = nullptr;          ///< core of each slot
  WayMask* active_masks = nullptr;     ///< its fill mask (decomposition)
  const AppPhase** phase = nullptr;    ///< its phase, as solved
  PhaseConst* pc = nullptr;
  double* ips = nullptr;
  double* occ = nullptr;
  double* miss = nullptr;
  double* miss_slope = nullptr;  ///< dm/docc at each slot's occupancy
  double* demand = nullptr;
  double* achieved = nullptr;    ///< arbitrated bytes/s of each slot
  CacheDemand* cache_demand = nullptr;
  CounterRun* runs = nullptr;
  bool runs_live = false;  ///< runs[0..n) hold the active slots' runs
  double* wfrac = nullptr;          ///< every slot's weight-share window
  ReuseComponent* reuse = nullptr;  ///< every slot's components
  CacheRegion* regions = nullptr;   ///< cached decomposition
  std::size_t num_regions = 0;
  LinkArbitration arb;
  OccupancyScratch occupancy;  ///< its storage lives in the block too

  // Capacities of the current block.
  std::size_t slot_capacity = 0;
  std::size_t reuse_capacity = 0;
  std::size_t region_capacity = 0;
  std::size_t sharer_capacity = 0;
  std::unique_ptr<std::byte[]> block;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config = {});

  const MachineConfig& config() const noexcept { return config_; }
  unsigned num_cores() const noexcept { return config_.num_cores; }
  unsigned num_ways() const noexcept { return config_.llc.ways; }
  /// Quanta elapsed since construction.
  std::uint64_t quantum() const noexcept { return quantum_; }
  double time_sec() const noexcept {
    return static_cast<double>(quantum_) * config_.quantum_sec;
  }

  /// Attach an application to a core (throws if occupied / out of range).
  void attach(unsigned core, const AppProfile* profile);
  /// Detach (idempotent). Telemetry counters are preserved, but the core's
  /// actuator state — fill mask and memory throttle — reverts to the
  /// defaults (full mask, no throttle) so the next tenant does not inherit
  /// the previous one's partition.
  void detach(unsigned core);
  bool occupied(unsigned core) const;
  /// The runtime of the app on `core`; throws if none. Read-only: an app
  /// advances only through the machine's own stepping.
  const AppRuntime& runtime(unsigned core) const;

  /// CAT actuator: set the fill mask for a core. Must be non-empty and
  /// within the cache's ways. (Contiguity is enforced by rdt::CatController,
  /// like real hardware does at the CLOS level, not here.)
  void set_fill_mask(unsigned core, WayMask mask);
  WayMask fill_mask(unsigned core) const;

  /// MBA actuator: cap a core's memory request rate to `fraction` of its
  /// demand (MBA-style delay throttling), fraction in (0, 1].
  void set_mem_throttle(unsigned core, double fraction);
  double mem_throttle(unsigned core) const;

  /// Advance one quantum (config().quantum_sec).
  void step();
  /// Advance to quantum `target` (a no-op if already there): bit-identical
  /// to `while (quantum() < target) step()`, except that while the solve
  /// cache is armed, replayed quanta that extend every core's run are
  /// committed at once (see commit_replayed).
  void run_until(std::uint64_t target);

  const CoreTelemetry& telemetry(unsigned core) const;

  /// Link utilisation of the last quantum (rho, possibly > 1 pre-throttle).
  double last_link_utilisation() const noexcept { return last_rho_; }
  /// Total achieved memory traffic rate of the last quantum (bytes/s).
  double last_link_traffic() const noexcept { return last_traffic_; }

  /// The way-region decomposition the next step() will use, rebuilt on
  /// demand. The decomposition is cached across quanta — fill masks change
  /// at most once per control period, not once per 10 ms quantum — and
  /// invalidated by set_fill_mask / attach / detach. Exposed so tests can
  /// assert the cache tracks every actuator path. Valid until the next
  /// actuation.
  std::span<const CacheRegion> current_regions();

  /// Convergence/replay counters since construction (never reset).
  const SolverStats& solver_stats() const noexcept { return stats_; }

 private:
  /// Replay state behind the last converged solve. While armed, a
  /// quantum whose active apps are all still in the phases scratch_.phase
  /// records replays the scratch state (ips/occ/arbitration) verbatim —
  /// exact, because a converged solve keeps the inputs of its final round
  /// and re-solving them on the same inputs exits in round 1 with the same
  /// bits. The active set, masks and MBA throttles need no per-step
  /// compare: their actuators disarm the cache on any real change.
  struct SolveCache {
    bool armed = false;
  };

  /// One core's state. All cores' live in one array, sized once at
  /// construction.
  struct CoreState {
    std::optional<AppRuntime> app;
    WayMask mask;
    /// The most reuse components a phase of its app has: the width of its
    /// slot's window in the solver block.
    std::uint32_t reuse = 0;
    double mem_throttle = 1.0;
    CoreTelemetry telemetry;
    double ips_seed = 0.0;  ///< warm start for the fixed point
  };

  void check_core(unsigned core) const;
  /// Make room in scratch_ for `slots` slots, `reuse` reuse components
  /// and a decomposition of `regions` regions with `sharers` sharer
  /// entries: a no-op when the block already has it, else one allocation
  /// of a block with at least that (and no less than before), keeping
  /// every slot's contents but its phase constants.
  void reserve_scratch(std::size_t slots, std::size_t reuse,
                       std::size_t regions, std::size_t sharers);
  /// The slots are about to index other cores: drop their runs and phase
  /// constants.
  void drop_slots() noexcept;
  void refresh_regions();
  void invalidate_regions() noexcept;
  void invalidate_solve() noexcept;
  /// Run the fixed point for the current quantum (scratch holds the
  /// result); returns true iff it converged.
  bool solve_quantum();
  /// Newton's method on G(x) = F(x) - x from the warm start in
  /// scratch_.ips; true iff it converged within fixed_point_rounds.
  /// `rounds_used` reports the evaluations of F.
  bool solve_fixed_point(unsigned& rounds_used);
  /// One evaluation of the coupled map F at scratch_.ips: occupancy, miss
  /// ratios, link arbitration and uncore latency under those IPS (left in
  /// scratch_, which therefore always describes scratch_.ips), and into
  /// `target` the IPS each active core would run at under that state.
  void evaluate(double* target);
  /// Columns U and V may need: one per region, plus two.
  static constexpr std::size_t kMaxJacobianTerms = kMaxWays + 2;
  /// The Jacobian dF/dx at scratch_.ips as J = D + U V^T, from the state
  /// the last evaluate() there left and its `target`: D's diagonal into
  /// `diag`, and U and V, n x r with column c at c * n, into `u` and `v`
  /// (room for kMaxJacobianTerms columns). Returns r: one column per
  /// filling region shared by two or more cores, and one each for the
  /// hit and the link latency while they move.
  std::size_t jacobian(const double* target, double* diag, double* u,
                       double* v);
  /// The Newton step d solving (I - J) d = g at scratch_.ips, through the
  /// Woodbury identity: (I - D) is diagonal, so only an r x r system is
  /// factored. False if that system is singular. U, V and that system
  /// live on the stack: they are rebuilt every round, and per-machine
  /// buffers would cost a large fleet megabytes.
  bool newton_step(const double* target, const double* g, double* d);
  /// Commit one quantum's increments to slot i: extend its run if they
  /// are bit-equal to the run's and advance()'s within-phase predicate
  /// holds, else go through advance() and start a new run. Returns the
  /// runs the app completed.
  unsigned commit(std::size_t i, double instructions, double bytes);
  /// Write slot i's run at its current length into the counters.
  void write_run(std::size_t i);
  /// Quanta, at most `limit`, that a replayed step() would commit by
  /// extending every slot's run: 0 unless the solve cache is armed and
  /// every app is in the phase it was solved for. Exact, on the closed
  /// form, since the within-phase predicate is monotone in the run length.
  std::uint64_t replay_room(std::uint64_t limit) const;
  /// Commit `quanta` replayed quanta (within replay_room) at once: every
  /// run grows by `quanta`. Writes a replayed step() makes with unchanged
  /// values (occupancy, last-quantum IPC, the IPS seed) are skipped.
  void commit_replayed(std::uint64_t quanta);

  friend struct MachineTestPeer;

  MachineConfig config_;
  trace::Tracer* tracer_;  ///< config_.tracer, resolved once
  std::uint64_t quantum_ = 0;
  std::unique_ptr<CoreState[]> cores_;
  MemoryLink link_;
  double last_rho_ = 0.0;
  double last_traffic_ = 0.0;
  bool regions_valid_ = false;  ///< scratch_.regions is current
  StepScratch scratch_;
  SolveCache solve_cache_;
  SolverStats stats_;
  /// Relative residual below which a solve has converged. Not a config
  /// field: the tests tighten it to bound the error the default leaves.
  double tolerance_ = 1e-9;
};

}  // namespace dicer::sim

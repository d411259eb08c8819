// The simulated server: N cores, a way-partitioned LLC, one memory link.
//
// Geometry defaults mirror the paper's testbed (Table 1): Intel Xeon
// E5-2630 v4, 10 cores at 2.2 GHz, 25 MB 20-way LLC, 68.3 Gbps memory link.
//
// Time advances in quanta (default 10 ms — 100 model steps per 1 s
// monitoring period). Each quantum solves a coupled fixed point between
// three sub-models:
//
//   occupancy  <- competitive sharing of each way-region given miss pressure
//   bandwidth  <- per-app demand = api * miss_ratio * IPS * line * (1 + wb)
//   IPC        <- CPI = cpi_core + api * ((1-m)*lat_llc + m*lat_mem(rho)),
//                 capped by the app's achieved bandwidth share when the
//                 link is oversubscribed
//
// because occupancy depends on IPS (pressure), IPS depends on latency,
// and latency depends on everyone's bandwidth, which depends on IPS.
// The loop warm-starts from the previous quantum and converges in a few
// damped rounds. A solve whose last round reproduces every IPS bit-exactly
// arms a replay cache: later quanta with the same active apps in the same
// phases reuse its solution without solving. run_for/run_until also commit
// whole stretches of replayed quanta that provably stay inside every app's
// phase in one bulk pass (DESIGN.md §5e); every other quantum goes through
// step(), the reference path, and the results are bit-identical either way.
//
// The Machine knows nothing about policies or priorities: it exposes
// exactly the actuator CAT has (a fill mask per core) and the observables
// CMT/MBM/perf have (occupancy, memory traffic, instructions, cycles).
// The rdt:: layer adapts those to a pqos-like API.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/cache/occupancy_model.hpp"
#include "sim/cache/set_assoc_cache.hpp"
#include "sim/cache/way_mask.hpp"
#include "sim/core/app_profile.hpp"
#include "sim/mem/memory_link.hpp"

namespace dicer::trace {
class Tracer;
}

namespace dicer::sim {

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
  unsigned fixed_point_rounds = 8;
  double fixed_point_damping = 0.5;
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
};

/// Counters for the convergence-aware quantum solve. `quanta` splits into
/// `replays` (served from the steady-state cache) and `solves` (ran the
/// fixed point); solves split into bit-stable and unstable exits; the
/// histogram records how many rounds each solve used. Invalidation causes
/// count only drops of an *armed* replay cache, by who dropped it.
struct SolverStats {
  std::uint64_t quanta = 0;   ///< step() calls with >= 1 active core
  std::uint64_t replays = 0;  ///< quanta replayed without solving
  std::uint64_t solves = 0;   ///< quanta that ran the fixed point
  std::uint64_t stable_solves = 0;    ///< last round reproduced IPS bit-exactly
  std::uint64_t unstable_solves = 0;  ///< exited above bit-stability
  std::uint64_t invalidations_actuator = 0;    ///< attach/detach/mask/throttle
  std::uint64_t invalidations_fingerprint = 0; ///< phase / active-set drift
  std::vector<std::uint64_t> rounds_hist;  ///< rounds used per solve, at r-1

  /// Accumulate `other` into this (histograms are size-matched by growth).
  void merge(const SolverStats& other);
  /// Sum of rounds over all solves (the histogram's first moment).
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
/// fields but the memo pair are pure functions of the phase; the memo pair
/// is value-safe too, because mrc.at() is pure — a refreshed memo
/// reproduces the exact value any other slot would compute.
struct PhaseConst {
  const AppPhase* phase = nullptr;  ///< the phase these were built from
  double sf = 0.0;            ///< mrc.stream_fraction()
  double one_minus_sf = 1.0;  ///< 1 - sf, as the demand split computes it
  double floor_m = 0.0;       ///< mrc.floor()
  double span_m = 1e-9;       ///< max(mrc.ceiling() - floor, 1e-9)
  std::vector<double> wfrac;  ///< weight_j / sum(weights); empty if sum<=0
  double memo_occ = -1.0;     ///< last mrc.at() argument
  double memo_miss = 1.0;     ///< and its value (occupancies repeat in
                              ///< steady state; at() is pow-heavy)

  /// Rebuild every field for `ph` (reusing the vectors' storage).
  void build(const AppPhase& ph);
};

/// Buffers reused across quanta so the steady-state step() performs no
/// heap allocation. Sized to the active-app count each step: slot i holds
/// the i-th active core's solver state, and pc[i] its phase constants
/// (kept across quanta, rebuilt when the slot's phase changes).
struct StepScratch {
  std::vector<unsigned> active;
  std::vector<WayMask> active_masks;
  std::vector<const AppPhase*> phase;
  std::vector<PhaseConst> pc;
  std::vector<double> ips;
  std::vector<double> occ;
  std::vector<double> miss;
  std::vector<double> demand;
  std::vector<CacheDemand> cache_demand;
  LinkArbitration arb;
  OccupancyScratch occupancy;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config = {});

  const MachineConfig& config() const noexcept { return config_; }
  unsigned num_cores() const noexcept { return config_.num_cores; }
  unsigned num_ways() const noexcept { return config_.llc.ways; }
  double time_sec() const noexcept { return time_sec_; }

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
  /// Advance by `seconds` in whole quanta (rounds up to >= 1 quantum).
  /// Bit-identical to calling step() that many times; while the solve
  /// cache is armed, quanta inside the replay budget are committed in bulk
  /// (see commit_replayed).
  void run_for(double seconds);
  /// Advance until time_sec() >= t_sec (no-op if already there). Unlike
  /// run_for, never overshoots by a whole interval — the fleet layer uses
  /// it to land every machine exactly on an epoch boundary. Bit-identical
  /// to the equivalent step() loop, with the same bulk commits.
  void run_until(double t_sec);

  const CoreTelemetry& telemetry(unsigned core) const;

  /// Link utilisation of the last quantum (rho, possibly > 1 pre-throttle).
  double last_link_utilisation() const noexcept { return last_rho_; }
  /// Total achieved memory traffic rate of the last quantum (bytes/s).
  double last_link_traffic() const noexcept { return last_traffic_; }

  /// The way-region decomposition the next step() will use, rebuilt on
  /// demand. The decomposition is cached across quanta — fill masks change
  /// at most once per control period, not once per 10 ms quantum — and
  /// invalidated by set_fill_mask / attach / detach. Exposed so tests can
  /// assert the cache tracks every actuator path.
  const std::vector<CacheRegion>& current_regions();

  /// Convergence/replay counters since construction (never reset).
  const SolverStats& solver_stats() const noexcept { return stats_; }

 private:
  /// Replay state behind the last bit-stable solve. While armed, a
  /// quantum whose active apps are all still in the phases scratch_.phase
  /// records replays the scratch state (ips/occ/arbitration) verbatim —
  /// exact, because a bit-stable solve is a floating-point fixed point and
  /// re-running it on the same inputs reproduces every bit. The active
  /// set, masks and MBA throttles need no per-step compare: their
  /// actuators disarm the cache on any real change.
  ///
  /// `budget` counts the quanta every active app can provably advance
  /// without reaching its phase boundary: the minimum over slots of
  /// floor(phase_remaining / instructions per quantum) - 2. The 2-quantum
  /// margin dominates the rounding k additions accumulate, so quanta
  /// inside the budget need no boundary check and can be committed in
  /// bulk. It is earned when a step() arms the cache (0 if that quantum's
  /// own commit crossed into another phase, which must not be replayed),
  /// spent one per replayed quantum, earned again when a run restarts into
  /// the solved phase, and zero while disarmed.
  struct SolveCache {
    bool armed = false;
    std::uint64_t budget = 0;
  };

  void check_core(unsigned core) const;
  void refresh_regions();
  void invalidate_regions() noexcept;
  void invalidate_solve() noexcept;
  /// Run the fixed point for the current quantum (scratch holds the
  /// result); returns true iff the final round reproduced every IPS
  /// bit-exactly.
  bool solve_quantum();
  /// The replay budget from the current state (0 if any active app's
  /// phase differs from the one the armed solve was computed for).
  std::uint64_t replay_budget() const;
  /// Commit `quanta` replayed quanta at once (quanta <= the budget). Each
  /// accumulator takes exactly the additions `quanta` replayed step()s
  /// make, in the same order — never a multiply, since FP addition does
  /// not distribute — with the running values held in registers. Writes a
  /// replayed step() makes with unchanged values (occupancy, last-quantum
  /// IPC, the IPS seed) are skipped.
  void commit_replayed(std::uint64_t quanta);

  friend struct MachineTestPeer;

  MachineConfig config_;
  trace::Tracer* tracer_;  ///< config_.tracer, resolved once
  double time_sec_ = 0.0;
  std::vector<std::optional<AppRuntime>> apps_;
  std::vector<WayMask> masks_;
  std::vector<double> mem_throttle_;
  std::vector<CoreTelemetry> telemetry_;
  std::vector<double> ips_seed_;  ///< warm start for the fixed point
  MemoryLink link_;
  double last_rho_ = 0.0;
  double last_traffic_ = 0.0;
  std::vector<CacheRegion> regions_;     ///< cached decomposition
  bool regions_valid_ = false;
  StepScratch scratch_;
  SolveCache solve_cache_;
  SolverStats stats_;
};

}  // namespace dicer::sim

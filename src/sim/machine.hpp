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
// damped rounds.
//
// The Machine knows nothing about policies or priorities: it exposes
// exactly the actuator CAT has (a fill mask per core) and the observables
// CMT/MBM/perf have (occupancy, memory traffic, instructions, cycles).
// The rdt:: layer adapts those to a pqos-like API.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
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

/// Per-phase constants hoisted out of the fixed-point rounds: built once
/// per distinct phase, not once per round of every quantum. All fields but
/// the memo pair are pure functions of the phase, which is what lets every
/// core (and every MachineBatch lane) running it share one PhaseConst.
struct PhaseConst {
  double sf = 0.0;            ///< mrc.stream_fraction()
  double one_minus_sf = 1.0;  ///< 1 - sf, as the demand split computes it
  double floor_m = 0.0;       ///< mrc.floor()
  double span_m = 1e-9;       ///< max(mrc.ceiling() - floor, 1e-9)
  std::vector<double> wfrac;  ///< weight_j / sum(weights); empty if sum<=0
  std::vector<double> ws;     ///< component working-set bytes (with wfrac)
  double memo_occ = -1.0;     ///< last mrc.at() argument
  double memo_miss = 1.0;     ///< and its value (occupancies repeat in
                              ///< steady state; at() is pow-heavy)
};

/// Deduplicated PhaseConst storage keyed by phase identity. A machine
/// resolves through its own table, or through its MachineBatch's shared one
/// while enrolled, so N lanes running the same app build (and keep hot) one
/// PhaseConst per distinct phase instead of one per core per machine. The
/// memo pair is value-safe to share — mrc.at() is pure, so a memo refresh
/// from any core or lane reproduces the exact value every other would
/// compute. Node-based map: references stay stable across inserts.
/// Not thread-safe; a machine or batch (and thus its table) is driven by
/// one thread at a time.
class PhaseConstTable {
 public:
  /// The shared PhaseConst for `phase`, built on first use.
  PhaseConst& get(const AppPhase* phase);
  std::size_t size() const noexcept { return map_.size(); }

 private:
  std::unordered_map<const AppPhase*, PhaseConst> map_;
};

/// Buffers reused across quanta so the steady-state step() performs no
/// heap allocation. Sized to the active-app count each step; one lane's
/// arrays are the flat per-slot state the fixed point iterates over.
struct StepScratch {
  std::vector<unsigned> active;
  std::vector<WayMask> active_masks;
  std::vector<const AppPhase*> phase;
  std::vector<PhaseConst*> pc;
  std::vector<double> ips;
  std::vector<double> occ;
  std::vector<double> miss;
  std::vector<double> demand;
  std::vector<CacheDemand> cache_demand;
  LinkArbitration arb;
  OccupancyScratch occupancy;
};

class MachineBatch;

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
  /// The runtime of the app on `core`; throws if none.
  const AppRuntime& runtime(unsigned core) const;
  AppRuntime& runtime(unsigned core);

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
  void run_for(double seconds);
  /// Advance until time_sec() >= t_sec (no-op if already there). Unlike
  /// run_for, never overshoots by a whole interval — the fleet layer uses
  /// it to land every machine exactly on an epoch boundary.
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
  /// Fingerprint of the inputs behind the last bit-stable solve. While
  /// armed, a quantum whose active-core list and per-core phase pointers
  /// match replays the scratch state (ips/occ/arbitration) verbatim —
  /// exact, because a bit-stable solve is a floating-point fixed point and
  /// re-running it on the same inputs reproduces every bit. Masks and MBA
  /// throttles need no per-step compare: their actuators disarm the cache
  /// on any real change.
  struct SolveCache {
    bool armed = false;
    std::vector<unsigned> active;
    std::vector<const AppPhase*> phase;
  };

  void check_core(unsigned core) const;
  void refresh_regions();
  void invalidate_regions() noexcept;
  void invalidate_solve() noexcept;
  /// Run the fixed point for the current quantum (scratch holds the
  /// result); returns true iff the final round reproduced every IPS
  /// bit-exactly.
  bool solve_quantum();

  /// MachineBatch snapshots the scratch/solve-cache state to fuse replayed
  /// quanta and installs shared_phases_; everything it reads or writes is
  /// exactly what a serial replayed step() would.
  friend class MachineBatch;
  friend struct MachineTestPeer;

  MachineConfig config_;
  double time_sec_ = 0.0;
  std::vector<std::optional<AppRuntime>> apps_;
  std::vector<WayMask> masks_;
  std::vector<double> mem_throttle_;
  std::vector<CoreTelemetry> telemetry_;
  std::vector<double> ips_seed_;  ///< warm start for the fixed point
  MemoryLink link_;
  double last_rho_ = 0.0;
  double last_traffic_ = 0.0;
  PhaseConstTable own_phases_;  ///< used while not in a batch
  /// Batch-shared PhaseConst storage: set by MachineBatch::add, cleared by
  /// the batch's destructor. While set, solve_quantum resolves PhaseConsts
  /// through it instead of own_phases_ — same values either way, one copy
  /// per distinct phase across the whole batch.
  PhaseConstTable* shared_phases_ = nullptr;
  std::vector<CacheRegion> regions_;     ///< cached decomposition
  bool regions_valid_ = false;
  StepScratch scratch_;
  SolveCache solve_cache_;
  SolverStats stats_;
};

}  // namespace dicer::sim

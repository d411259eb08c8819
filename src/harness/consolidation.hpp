// Consolidation runner — one experiment in the paper's methodology (§4.1):
// the HP pinned to core 0, N-1 BE instances pinned to the remaining cores,
// everything started together, finished apps restarted "until all of them
// have executed at least once", a policy adjusting allocations throughout.
//
// QoS is measured as the paper measures it: average IPC over the
// consolidation window versus IPC_alone. (For a fixed instruction stream,
// the IPC ratio equals the execution-time slowdown.)
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "policy/policy.hpp"
#include "sim/core/app_profile.hpp"
#include "sim/machine.hpp"

namespace dicer::harness {

struct ConsolidationConfig {
  sim::MachineConfig machine{};
  unsigned cores_used = 10;    ///< 1 HP + (cores_used - 1) BEs
  double min_window_sec = 20.0;
  double max_window_sec = 240.0;  ///< safety cap (starved BEs)
  bool enable_mba = false;        ///< expose an MBA controller to the policy
  /// Event sink for the run (null = process-global tracer). Propagated to
  /// the policy context, the monitor and — unless machine.tracer is
  /// already set — the simulated machine, and bracketed by
  /// run_begin/run_end events carrying the workload and the results.
  trace::Tracer* tracer = nullptr;
};

struct ConsolidationResult {
  std::string policy;
  double window_sec = 0.0;
  double hp_ipc = 0.0;
  double be_ipc_mean = 0.0;          ///< average across BE instances
  std::vector<double> be_ipcs;
  std::uint64_t hp_completions = 0;
  std::uint64_t be_completions = 0;  ///< summed over BEs
  double avg_link_utilisation = 0.0; ///< time-averaged rho
  bool window_capped = false;        ///< hit max_window before completions
  sim::SolverStats solver;           ///< quantum-solve convergence counters

  /// Pairs (HP first) ready for metrics::effective_utilisation, given the
  /// solo IPCs of HP and BE.
  std::vector<metrics::IpcPair> ipc_pairs(double hp_alone,
                                          double be_alone) const;
};

/// Run one consolidation of `hp` + (cores_used-1) x `be` under `policy`:
/// a fresh machine advanced one policy interval at a time through
/// Machine::run_for (whose bulk replay commits carry the settled
/// stretches), the policy acting between intervals. Throws
/// std::invalid_argument unless cores_used is in [2, machine cores].
ConsolidationResult run_consolidation(const sim::AppProfile& hp,
                                      const sim::AppProfile& be,
                                      policy::Policy& policy,
                                      const ConsolidationConfig& config = {});

/// Resolve a requested worker count: 0 consults $DICER_SWEEP_JOBS, then
/// falls back to hardware concurrency; the result is always >= 1.
unsigned resolve_sweep_jobs(unsigned requested);

/// One cell of a consolidation grid; `cores_used` overrides
/// base.cores_used for this cell.
struct GridCell {
  const sim::AppProfile* hp = nullptr;
  const sim::AppProfile* be = nullptr;
  unsigned cores_used = 10;
};

/// Builds cell i's policy, on the worker that runs the cell (so at most a
/// chunk's worth of policies per worker is ever alive).
using GridPolicyFactory =
    std::function<std::unique_ptr<policy::Policy>(std::size_t)>;
/// Receives cell i's result, on the worker, while its policy is still
/// alive (to copy policy-owned counters out); writes only cell i's slot.
using GridCellDone = std::function<void(
    std::size_t, const ConsolidationResult&, const policy::Policy&)>;

/// Consecutive cells per pool task of a grid.
inline constexpr std::size_t kGridChunkCells = 8;

/// Evaluate a grid of independent consolidations — the one engine of the
/// baseline study, the policy sweep and the DICER ablation. Chunks of
/// kGridChunkCells consecutive cells run on `jobs` pool workers
/// (0 = resolve_sweep_jobs): a chunk builds its policies, then calls
/// run_consolidation once per cell, in order. Every cell's result is
/// byte-identical for any worker count. The first failing cell's exception
/// (in cell order) is rethrown; in parallel, after every chunk has
/// finished. Progress is logged at info level under `label`.
void run_consolidation_grid(const std::vector<GridCell>& cells,
                            const GridPolicyFactory& make_policy,
                            const GridCellDone& done,
                            const ConsolidationConfig& base, unsigned jobs,
                            const char* label = "consolidation grid");

/// Accumulate a machine's convergence counters into the global
/// trace::TimerRegistry (the `--profile` output): quanta, replay hits,
/// solves by stability, fixed-point rounds (total and histogram) and
/// invalidation causes. Called by every harness that drives a Machine;
/// thread-safe, so parallel grid workers merge into one profile.
void record_solver_counters(const sim::SolverStats& stats);

}  // namespace dicer::harness

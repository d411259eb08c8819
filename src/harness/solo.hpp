// Solo execution: IPC_alone and per-way-count profiles.
//
// Every paper metric normalises against the application running alone on
// the machine with the full LLC (IPC_alone, §4.1), and Fig 2 needs each
// app's solo performance at every way count. Because the machine model is
// analytic and phase-wise stationary, solo IPC has a closed(ish) form: a
// per-phase fixed point between IPS, miss ratio and link latency, combined
// across phases by instruction-weighted harmonic mean. The steady-state
// evaluator computes that directly (microseconds). The tests check it
// against a stepped sim::Machine (tests/support/solo_oracle.hpp).
#pragma once

#include <span>
#include <vector>

#include "sim/core/app_profile.hpp"
#include "sim/machine.hpp"

namespace dicer::harness {

struct SoloResult {
  double ipc = 0.0;       ///< whole-run average (instruction-weighted)
  double time_sec = 0.0;  ///< one complete execution
  double mem_bw_bytes_per_sec = 0.0;  ///< time-average achieved traffic
};

/// Steady-state solo IPC of one phase given `cache_bytes` of LLC.
double steady_state_phase_ipc(const sim::AppPhase& phase, double cache_bytes,
                              const sim::MachineConfig& config);

/// Steady-state solo result with `ways` LLC ways (whole run, all phases).
SoloResult solo_steady_state(const sim::AppProfile& profile, unsigned ways,
                             const sim::MachineConfig& config);

/// Fig 2 helper: the minimum number of ways at which the app reaches
/// `fraction` of its full-LLC steady-state IPC. Returns ways in
/// [1, config.llc.ways]; by construction the answer exists at the top.
unsigned min_ways_for_fraction(const sim::AppProfile& profile, double fraction,
                               const sim::MachineConfig& config);

/// The same search over a table of IPC at 1..N ways (N = the full cache):
/// the minimum ways whose IPC reaches `fraction` of the table's last
/// entry. Throws std::invalid_argument unless fraction is in (0, 1] and
/// the table is non-empty.
unsigned min_ways_in_table(std::span<const double> ipc_by_ways,
                           double fraction);

}  // namespace dicer::harness

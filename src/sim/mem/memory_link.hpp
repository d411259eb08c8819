// Bandwidth-arbitrated memory link with congestion latency.
//
// The paper's Key Observation 2 hinges on this mechanism: when CT squeezes
// nine BEs into one LLC way, their miss storm saturates the memory link and
// a bandwidth-sensitive HP slows down even though it owns 19/20 of the
// cache. The model:
//
//  - each requester declares a demanded bandwidth (bytes/s) for the
//    quantum, derived from its miss rate and instruction rate;
//  - a congestion curve inflates effective memory latency with utilisation
//    rho:  f(rho) = 1 + c1 * rho + A * rho^p  — a gradual queueing rise from
//    the first request onward (real DDR latency climbs well before
//    saturation, which is why the paper's Fig 1 shows almost every UM
//    co-location costing the HP ~10 %) topped by a sharp knee near
//    saturation (what makes the paper's 50 Gbps threshold — 73 % of the
//    68.3 Gbps link — a sensible trip point);
//  - when raw demand exceeds capacity (raw_rho > 1) the queue grows and
//    every memory access additionally stretches by raw_rho:
//        lat_eff = lat_base * f(min(rho,1)) * max(raw_rho, 1)
//    Memory-bound requesters slow down until total demand settles near
//    capacity (the machine's fixed point finds that equilibrium), while
//    compute-bound requesters are barely touched — matching real servers,
//    where a busy link hurts you in proportion to how often you miss.
//  - for accounting, achieved bandwidth is demand scaled by
//    min(capacity/total_demand, 1) so reported traffic never exceeds the
//    link (MBM-style telemetry).
#pragma once

#include <cstddef>
#include <span>

namespace dicer::sim {

struct MemoryLinkConfig {
  double capacity_bytes_per_sec = 68.3e9 / 8.0;  ///< 68.3 Gbps (Table 1)
  double base_latency_cycles = 220.0;            ///< uncontended DRAM access
  double congestion_linear = 0.45;               ///< gradual queueing rise
  double congestion_amplitude = 1.8;             ///< A: f(1) = 1 + lin + A
  double congestion_exponent = 8.0;              ///< p: knee sharpness
};

/// Outcome of arbitrating one quantum's demands.
struct LinkArbitration {
  double utilisation = 0.0;              ///< rho = min(demand/capacity, 1)
  double raw_utilisation = 0.0;          ///< demand/capacity, may exceed 1
  double effective_latency_cycles = 0.0; ///< shared by all requesters
  double throttle = 1.0;                 ///< achieved/demanded, in (0, 1]
  /// Sum of the per-requester achieved rates, accumulated in requester
  /// order while arbitrating (bit-identical to the caller summing them).
  double total_achieved_bytes_per_sec = 0.0;
};

class MemoryLink {
 public:
  explicit MemoryLink(const MemoryLinkConfig& config = {});

  const MemoryLinkConfig& config() const noexcept { return config_; }

  /// Arbitrate the given per-requester demands (bytes/s, >= 0; a negative
  /// one throws std::invalid_argument) into `out`, and each requester's
  /// achieved rate into `achieved` (one entry per demand, else
  /// std::invalid_argument): the machine's allocation-free per-quantum
  /// path.
  void arbitrate_into(std::span<const double> demand_bytes_per_sec,
                      std::span<double> achieved,
                      LinkArbitration& out) const;

  /// Congestion latency for a *raw* utilisation (may exceed 1); exposed for
  /// tests and the link-model micro bench.
  double latency_at(double raw_utilisation) const noexcept;
  /// Its derivative in the raw utilisation: the congestion polynomial's
  /// slope base * (lin + A * p * rho^(p-1)) below saturation, and the
  /// oversubscription stretch's base * f(1) at and above it.
  double latency_slope_at(double raw_utilisation) const noexcept;

 private:
  MemoryLinkConfig config_;
};

}  // namespace dicer::sim

#include "harness/solo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/mem/memory_link.hpp"

namespace dicer::harness {

double steady_state_phase_ipc(const sim::AppPhase& phase, double cache_bytes,
                              const sim::MachineConfig& config) {
  const sim::MemoryLink link(config.link);
  const double freq = config.freq_hz;
  const double line = config.llc.line_bytes;
  const double m = phase.mrc.at(cache_bytes);

  double ips = freq / (phase.cpi_core + 1.0);
  for (unsigned iter = 0; iter < 40; ++iter) {
    const double demand = phase.api * m * ips * line * (1.0 + phase.wb_ratio);
    const double raw_rho = demand / config.link.capacity_bytes_per_sec;
    const double lat = link.latency_at(raw_rho);
    const double hit_latency =
        config.llc_hit_latency_cycles *
        (1.0 + config.uncore_contention_coeff *
                   std::sqrt(std::min(
                       phase.api * ips / config.uncore_access_ref_per_sec,
                       1.0)));
    const double floor_m = phase.mrc.floor();
    const double span_m = std::max(phase.mrc.ceiling() - floor_m, 1e-9);
    const double excess = std::clamp((m - floor_m) / span_m, 0.0, 1.0);
    const double mlp_eff =
        phase.mlp * (1.0 - config.mlp_squeeze * excess);
    const double cpi =
        phase.cpi_core +
        phase.api * ((1.0 - m) * hit_latency + m * lat / mlp_eff);
    const double target = freq / cpi;
    const double next = 0.5 * target + 0.5 * ips;
    if (std::fabs(next - ips) / std::max(ips, 1.0) < 1e-7) {
      ips = next;
      break;
    }
    ips = next;
  }
  return ips / freq;
}

SoloResult solo_steady_state(const sim::AppProfile& profile, unsigned ways,
                             const sim::MachineConfig& config) {
  if (ways < 1 || ways > config.llc.ways) {
    throw std::invalid_argument("solo_steady_state: bad way count");
  }
  const double bytes = config.way_bytes() * ways;
  const sim::MemoryLink link(config.link);
  const double line = config.llc.line_bytes;

  SoloResult out;
  double total_instr = 0.0;
  double total_time = 0.0;
  double total_bytes = 0.0;
  for (const auto& phase : profile.phases) {
    const double ipc = steady_state_phase_ipc(phase, bytes, config);
    const double ips = ipc * config.freq_hz;
    const double t = phase.instructions / ips;
    const double m = phase.mrc.at(bytes);
    double demand = phase.api * m * ips * line * (1.0 + phase.wb_ratio);
    demand = std::min(demand, config.link.capacity_bytes_per_sec);
    total_instr += phase.instructions;
    total_time += t;
    total_bytes += demand * t;
  }
  out.time_sec = total_time;
  out.ipc = total_instr / (total_time * config.freq_hz);
  out.mem_bw_bytes_per_sec = total_time > 0.0 ? total_bytes / total_time : 0.0;
  return out;
}

unsigned min_ways_for_fraction(const sim::AppProfile& profile, double fraction,
                               const sim::MachineConfig& config) {
  std::vector<double> ipc_by_ways;
  for (unsigned w = 1; w <= config.llc.ways; ++w) {
    ipc_by_ways.push_back(solo_steady_state(profile, w, config).ipc);
  }
  return min_ways_in_table(ipc_by_ways, fraction);
}

unsigned min_ways_in_table(std::span<const double> ipc_by_ways,
                           double fraction) {
  if (fraction <= 0.0 || fraction > 1.0 || ipc_by_ways.empty()) {
    throw std::invalid_argument(
        "min_ways_in_table: fraction outside (0, 1] or empty table");
  }
  const double target = fraction * ipc_by_ways.back();
  for (std::size_t w = 0; w < ipc_by_ways.size(); ++w) {
    if (ipc_by_ways[w] >= target) return static_cast<unsigned>(w + 1);
  }
  return static_cast<unsigned>(ipc_by_ways.size());
}

}  // namespace dicer::harness

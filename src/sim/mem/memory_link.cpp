#include "sim/mem/memory_link.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dicer::sim {

MemoryLink::MemoryLink(const MemoryLinkConfig& config) : config_(config) {
  if (config_.capacity_bytes_per_sec <= 0.0) {
    throw std::invalid_argument("MemoryLink: capacity must be > 0");
  }
  if (config_.base_latency_cycles <= 0.0) {
    throw std::invalid_argument("MemoryLink: base latency must be > 0");
  }
  if (config_.congestion_amplitude < 0.0 ||
      config_.congestion_exponent <= 0.0 || config_.congestion_linear < 0.0) {
    throw std::invalid_argument("MemoryLink: bad congestion parameters");
  }
}

double MemoryLink::latency_at(double raw_utilisation) const noexcept {
  const double rho = std::clamp(raw_utilisation, 0.0, 1.0);
  const double congestion =
      1.0 + config_.congestion_linear * rho +
      config_.congestion_amplitude *
          std::pow(rho, config_.congestion_exponent);
  const double oversubscription = std::max(raw_utilisation, 1.0);
  return config_.base_latency_cycles * congestion * oversubscription;
}

double MemoryLink::latency_slope_at(double raw_utilisation) const noexcept {
  const auto& c = config_;
  if (raw_utilisation >= 1.0) {
    return c.base_latency_cycles *
           (1.0 + c.congestion_linear + c.congestion_amplitude);
  }
  const double knee =
      raw_utilisation > 0.0
          ? c.congestion_amplitude * c.congestion_exponent *
                std::pow(raw_utilisation, c.congestion_exponent - 1.0)
          : 0.0;
  return c.base_latency_cycles * (c.congestion_linear + knee);
}

void MemoryLink::arbitrate_into(std::span<const double> demand_bytes_per_sec,
                                std::span<double> achieved,
                                LinkArbitration& out) const {
  if (achieved.size() != demand_bytes_per_sec.size()) {
    throw std::invalid_argument("MemoryLink: one achieved rate per demand");
  }
  double total = 0.0;
  for (double d : demand_bytes_per_sec) {
    if (d < 0.0) throw std::invalid_argument("MemoryLink: negative demand");
    total += d;
  }
  out.raw_utilisation = total / config_.capacity_bytes_per_sec;
  out.utilisation = std::min(out.raw_utilisation, 1.0);
  out.throttle = out.raw_utilisation > 1.0 ? 1.0 / out.raw_utilisation : 1.0;
  out.effective_latency_cycles = latency_at(out.raw_utilisation);
  out.total_achieved_bytes_per_sec = 0.0;
  for (std::size_t i = 0; i < demand_bytes_per_sec.size(); ++i) {
    achieved[i] = demand_bytes_per_sec[i] * out.throttle;
    out.total_achieved_bytes_per_sec += achieved[i];
  }
}

}  // namespace dicer::sim

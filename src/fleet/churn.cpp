#include "fleet/churn.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace dicer::fleet {

ChurnGenerator::ChurnGenerator(const ChurnConfig& config,
                               const sim::AppCatalog& catalog)
    : config_(config), catalog_(&catalog), rng_(config.seed) {
  // `!(x >= 0)` also rejects NaN; an infinite rate would make every gap
  // 0 and drain_until would never return.
  if (!(config.arrival_rate_per_sec >= 0.0) ||
      !std::isfinite(config.arrival_rate_per_sec)) {
    throw std::invalid_argument(
        "ChurnGenerator: arrival rate must be finite and >= 0");
  }
  if (!(config.mean_lifetime_sec > 0.0) ||
      !std::isfinite(config.mean_lifetime_sec)) {
    throw std::invalid_argument(
        "ChurnGenerator: mean lifetime must be finite and > 0");
  }
  if (!std::isfinite(config.min_lifetime_sec)) {
    throw std::invalid_argument("ChurnGenerator: min lifetime must be finite");
  }
  if (catalog.size() == 0) {
    throw std::invalid_argument("ChurnGenerator: empty catalog");
  }
}

TenantArrival ChurnGenerator::generate() {
  // Inverse-CDF exponential draws; uniform() < 1 so the logs are finite.
  // A zero rate never arrives: the gap is +inf, not -log(1 - u) / 0
  // (NaN at u = 0).
  const double u = rng_.uniform();
  t_ += config_.arrival_rate_per_sec > 0.0
            ? -std::log(1.0 - u) / config_.arrival_rate_per_sec
            : std::numeric_limits<double>::infinity();
  TenantArrival a;
  a.id = next_id_++;
  a.t_sec = t_;
  a.lifetime_sec = std::max(
      config_.min_lifetime_sec,
      -std::log(1.0 - rng_.uniform()) * config_.mean_lifetime_sec);
  a.app = &catalog_->at(rng_.below(catalog_->size()));
  return a;
}

const TenantArrival& ChurnGenerator::peek() {
  if (!pending_) pending_ = generate();
  return *pending_;
}

TenantArrival ChurnGenerator::next() {
  peek();
  TenantArrival a = *pending_;
  pending_.reset();
  return a;
}

std::vector<TenantArrival> ChurnGenerator::drain_until(double t_end) {
  std::vector<TenantArrival> out;
  while (peek().t_sec < t_end) out.push_back(next());
  return out;
}

}  // namespace dicer::fleet

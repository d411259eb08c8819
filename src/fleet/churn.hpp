// Deterministic tenant arrival/departure churn.
//
// Best-effort tenants arrive as a Poisson process (exponential
// inter-arrival gaps at `arrival_rate_per_sec`; a rate of 0 never
// arrives, so a fleet runs its HPs alone), each drawing an
// application uniformly from the catalog and an exponential service
// lifetime. Everything derives from one seeded `util::Xoshiro256`, so a
// churn trace replays bit-for-bit from (seed, catalog) — the fleet's
// determinism contract starts here: the arrival stream never depends on
// placement decisions or on how many workers step the machines.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/core/catalog.hpp"
#include "util/rng.hpp"

namespace dicer::fleet {

struct ChurnConfig {
  double arrival_rate_per_sec = 2.0;  ///< Poisson arrival intensity (>= 0)
  double mean_lifetime_sec = 30.0;    ///< exponential service time
  double min_lifetime_sec = 2.0;      ///< floor under the exponential draw
  std::uint64_t seed = 1;
};

/// One tenant asking to be placed.
struct TenantArrival {
  std::uint64_t id = 0;       ///< dense, in arrival order
  double t_sec = 0.0;         ///< arrival time (strictly increasing)
  double lifetime_sec = 0.0;  ///< service time once running
  const sim::AppProfile* app = nullptr;
};

class ChurnGenerator {
 public:
  /// Throws std::invalid_argument on a negative or non-finite rate, a
  /// non-positive or non-finite lifetime, or an empty catalog.
  ChurnGenerator(const ChurnConfig& config, const sim::AppCatalog& catalog);

  /// The next arrival without consuming it (at t_sec = +inf under a zero
  /// rate).
  const TenantArrival& peek();
  /// Consume and return the next arrival.
  TenantArrival next();
  /// Every arrival with t_sec < t_end, in order (possibly empty).
  std::vector<TenantArrival> drain_until(double t_end);

 private:
  TenantArrival generate();

  ChurnConfig config_;
  const sim::AppCatalog* catalog_;
  util::Xoshiro256 rng_;
  double t_ = 0.0;
  std::uint64_t next_id_ = 0;
  std::optional<TenantArrival> pending_;
};

}  // namespace dicer::fleet

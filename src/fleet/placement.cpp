#include "fleet/placement.hpp"

#include <stdexcept>

namespace dicer::fleet {

std::optional<unsigned> RandomPlacement::place(
    const sim::AppProfile& /*app*/, PlacementIndex& index,
    std::optional<unsigned> exclude) {
  // One below(count) draw over the open machines other than `exclude`,
  // resolved to the k-th of them in index order.
  const auto eligible = [&](unsigned m) {
    return m != exclude && index.is_open(m);
  };
  std::uint64_t count = 0;
  for (unsigned m = 0; m < index.size(); ++m) count += eligible(m);
  if (count == 0) return std::nullopt;
  std::uint64_t k = rng_.below(count);
  for (unsigned m = 0;; ++m) {
    if (eligible(m) && k-- == 0) return m;
  }
}

std::optional<unsigned> LeastLoadedPlacement::place(
    const sim::AppProfile& /*app*/, PlacementIndex& index,
    std::optional<unsigned> exclude) {
  // Under uniform per-machine capacity, fewest tenants == most free cores;
  // the first strictly better machine in index order wins ties, so an
  // empty machine ends the scan.
  std::optional<unsigned> best;
  unsigned best_free = 0;
  for (unsigned m = 0; m < index.size() && best_free < index.be_slots(); ++m) {
    const unsigned f = index.free_cores(m);
    if (m != exclude && f > best_free) {
      best = m;
      best_free = f;
    }
  }
  return best;
}

std::optional<unsigned> MrcBestFitPlacement::place(
    const sim::AppProfile& app, PlacementIndex& index,
    std::optional<unsigned> exclude) {
  // Greedy on the *marginal* EFU: the fleet metric is the mean of
  // per-machine EFUs and placing on machine m changes only m's term, so
  // the fleet-optimal greedy picks the machine whose predicted EFU drops
  // least (or rises most) when the tenant joins. Maximising the absolute
  // post-placement score instead would chase machines that score well
  // regardless of the tenant.
  return index.best_fit(dir_->signal(app.name), exclude);
}

std::unique_ptr<PlacementEngine> make_placement(const std::string& name,
                                                const AppDirectory& directory,
                                                std::uint64_t seed) {
  if (name == "random") return std::make_unique<RandomPlacement>(seed);
  if (name == "least-loaded") return std::make_unique<LeastLoadedPlacement>();
  if (name == "mrc") return std::make_unique<MrcBestFitPlacement>(directory);
  throw std::invalid_argument("make_placement: unknown engine '" + name +
                              "' (try random, least-loaded, mrc)");
}

std::vector<std::string> known_placements() {
  return {"random", "least-loaded", "mrc"};
}

}  // namespace dicer::fleet

#include "fleet/placement.hpp"

#include <stdexcept>

namespace dicer::fleet {

std::optional<unsigned> RandomPlacement::place(
    const sim::AppProfile& /*app*/, PlacementIndex& index,
    std::optional<unsigned> exclude) {
  // One below(open_count) draw resolved through the order-statistics tree:
  // the k-th open machine in index order. An open excluded machine leaves
  // the candidate set, so ranks at or past it shift up by one.
  const bool excl_open =
      exclude && *exclude < index.size() && index.is_open(*exclude);
  const std::uint64_t count = index.open_count() - (excl_open ? 1 : 0);
  if (count == 0) return std::nullopt;
  std::uint64_t k = rng_.below(count);
  if (excl_open && k >= index.open_rank(*exclude)) ++k;
  return index.nth_open(k);
}

std::optional<unsigned> LeastLoadedPlacement::place(
    const sim::AppProfile& /*app*/, PlacementIndex& index,
    std::optional<unsigned> exclude) {
  // Under uniform per-machine capacity, fewest tenants == most free cores,
  // and ties go to the lowest index — the head of the highest non-empty
  // free-core bucket.
  return index.least_loaded(exclude);
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

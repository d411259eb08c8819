#include "fleet/placement.hpp"

#include <algorithm>
#include <stdexcept>

namespace dicer::fleet {

double predict_efu(const AppDirectory& dir, const AppSignal& hp_sig,
                   const std::vector<const AppSignal*>& bes,
                   std::vector<metrics::IpcPair>& pairs) {
  const auto& machine = dir.machine();
  const auto total_ways = machine.llc.ways;

  // The HP holds the partition it needs to stay near solo IPC (DICER's
  // steady state); everything else is the BE pool.
  const unsigned hp_ways =
      std::clamp(hp_sig.ways_needed, 1u, total_ways - 1u);
  const double be_ways = static_cast<double>(total_ways - hp_ways);

  // The BE pool splits in proportion to MRC footprint: a streaming app
  // with no reuse mass takes (and gains from) almost nothing, a deep-knee
  // app claims most of the pool. Footprint-less mixes fall back to an
  // even split.
  double footprint_sum = 0.0;
  for (const auto* s : bes) footprint_sum += s->footprint_bytes;

  pairs.clear();
  double demand = hp_sig.bw_by_ways[hp_ways - 1];
  pairs.push_back({hp_sig.ipc_alone, hp_sig.ipc_at_ways(hp_ways)});
  for (const auto* s : bes) {
    const double share =
        footprint_sum > 0.0
            ? be_ways * (s->footprint_bytes / footprint_sum)
            : be_ways / static_cast<double>(bes.size());
    const double w = std::clamp(share, 1.0, be_ways);
    pairs.push_back({s->ipc_alone, s->ipc_at_ways(w)});
    demand += s->bw_by_ways[static_cast<std::size_t>(w) - 1];
  }

  // Oversubscribing the memory link slows everyone proportionally —
  // a crude but monotone stand-in for the saturating-link model.
  const double capacity = machine.link.capacity_bytes_per_sec;
  const double link_factor =
      demand > capacity && demand > 0.0 ? capacity / demand : 1.0;
  for (auto& p : pairs) p.colocated *= link_factor;

  return metrics::effective_utilisation(pairs);
}

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

double MrcScoringBase::delta(PlacementIndex& index, unsigned machine,
                             const AppSignal& app_sig) {
  // Dirty-score protocol: a clean (machine, app) pair is a cached double
  // — bit-identical to recomputation because predict_efu() is pure. A
  // dirty machine recomputes at most one "before" (shared by every app
  // scored against this tenant set) plus one "after" per distinct app.
  if (index.has_delta(machine, app_sig.id)) {
    return index.delta(machine, app_sig.id);
  }
  const AppSignal& hp_sig = index.hp_signal(machine);
  index.tenant_signals(machine, bes_);
  double before;
  if (index.has_before(machine)) {
    before = index.before(machine);
  } else {
    before = predict_efu(*dir_, hp_sig, bes_, pairs_);
    index.set_before(machine, before);
  }
  bes_.push_back(&app_sig);
  const double d = predict_efu(*dir_, hp_sig, bes_, pairs_) - before;
  index.set_delta(machine, app_sig.id, d);
  return d;
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
  const AppSignal& app_sig = dir_->signal(app.name);
  std::optional<unsigned> best;
  double best_delta = 0.0;
  for (unsigned m = 0; m < index.size(); ++m) {
    if (index.free_cores(m) == 0) continue;
    if (exclude && *exclude == m) continue;
    const double d = delta(index, m, app_sig);
    if (!best || d > best_delta) {
      best = m;
      best_delta = d;
    }
  }
  return best;
}

MrcP2cPlacement::MrcP2cPlacement(const AppDirectory& directory,
                                 std::uint64_t seed, unsigned choices)
    : MrcScoringBase(directory), rng_(seed), choices_(choices) {
  if (choices == 0) {
    throw std::invalid_argument(
        "MrcP2cPlacement: need at least one choice (d >= 1)");
  }
}

std::optional<unsigned> MrcP2cPlacement::place(
    const sim::AppProfile& app, PlacementIndex& index,
    std::optional<unsigned> exclude) {
  const AppSignal& app_sig = dir_->signal(app.name);
  const bool excl_open =
      exclude && *exclude < index.size() && index.is_open(*exclude);
  const std::uint64_t count = index.open_count() - (excl_open ? 1 : 0);
  if (count == 0) return std::nullopt;
  draw_scratch_.clear();
  for (unsigned j = 0; j < choices_; ++j) {
    std::uint64_t k = rng_.below(count);
    if (excl_open && k >= index.open_rank(*exclude)) ++k;
    draw_scratch_.push_back(index.nth_open(k));
  }
  // Candidates scored in draw order, repeats skipped.
  std::optional<unsigned> best;
  double best_delta = 0.0;
  for (std::size_t j = 0; j < draw_scratch_.size(); ++j) {
    const unsigned m = draw_scratch_[j];
    const auto drawn = draw_scratch_.begin() + static_cast<std::ptrdiff_t>(j);
    if (std::find(draw_scratch_.begin(), drawn, m) != drawn) continue;
    const double d = delta(index, m, app_sig);
    if (!best || d > best_delta) {
      best = m;
      best_delta = d;
    }
  }
  return best;
}

std::unique_ptr<PlacementEngine> make_placement(const std::string& name,
                                                const AppDirectory& directory,
                                                std::uint64_t seed,
                                                unsigned p2c_choices) {
  if (name == "random") return std::make_unique<RandomPlacement>(seed);
  if (name == "least-loaded") return std::make_unique<LeastLoadedPlacement>();
  if (name == "mrc") return std::make_unique<MrcBestFitPlacement>(directory);
  if (name == "mrc-p2c") {
    return std::make_unique<MrcP2cPlacement>(directory, seed, p2c_choices);
  }
  throw std::invalid_argument("make_placement: unknown engine '" + name +
                              "' (try random, least-loaded, mrc, mrc-p2c)");
}

std::vector<std::string> known_placements() {
  return {"random", "least-loaded", "mrc", "mrc-p2c"};
}

}  // namespace dicer::fleet

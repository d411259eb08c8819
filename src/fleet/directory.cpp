#include "fleet/directory.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "harness/solo.hpp"

namespace dicer::fleet {

double AppSignal::ipc_at_ways(double ways) const noexcept {
  if (ipc_by_ways.empty()) return 0.0;
  const double max_w = static_cast<double>(ipc_by_ways.size());
  const double w = std::clamp(ways, 1.0, max_w);
  const auto lo = static_cast<std::size_t>(std::floor(w)) - 1;
  const auto hi = std::min(lo + 1, ipc_by_ways.size() - 1);
  const double frac = w - std::floor(w);
  return ipc_by_ways[lo] + frac * (ipc_by_ways[hi] - ipc_by_ways[lo]);
}

AppDirectory::AppDirectory(const sim::AppCatalog& catalog,
                           const sim::MachineConfig& machine,
                           double hp_fraction)
    : machine_(machine) {
  const unsigned ways = machine.llc.ways;
  for (const auto& app : catalog.profiles()) {
    AppSignal s;
    s.profile = &app;
    s.id = signals_.size();
    s.ipc_by_ways.reserve(ways);
    s.bw_by_ways.reserve(ways);
    for (unsigned w = 1; w <= ways; ++w) {
      const auto solo = harness::solo_steady_state(app, w, machine);
      s.ipc_by_ways.push_back(solo.ipc);
      s.bw_by_ways.push_back(solo.mem_bw_bytes_per_sec);
    }
    s.ipc_alone = s.ipc_by_ways.back();
    for (const auto& ph : app.phases) {
      s.footprint_bytes = std::max(s.footprint_bytes, ph.mrc.footprint_bytes());
    }
    s.ways_needed = harness::min_ways_in_table(s.ipc_by_ways, hp_fraction);
    signals_.emplace(app.name, std::move(s));
  }
}

const AppSignal& AppDirectory::signal(const std::string& name) const {
  const auto it = signals_.find(name);
  if (it == signals_.end()) {
    throw std::out_of_range("AppDirectory: unknown app '" + name + "'");
  }
  return it->second;
}

void EfuOperands::assign(const AppDirectory& dir, const AppSignal& hp_sig,
                         std::span<const AppSignal* const> bes) {
  const auto& machine = dir.machine();
  const auto total_ways = machine.llc.ways;
  // The HP holds the partition it needs to stay near solo IPC (DICER's
  // steady state); everything else is the BE pool.
  const unsigned hp_ways =
      std::clamp(hp_sig.ways_needed, 1u, total_ways - 1u);
  hp = {hp_sig.ipc_alone, hp_sig.ipc_at_ways(hp_ways)};
  hp_bw = hp_sig.bw_by_ways[hp_ways - 1];
  be_ways = static_cast<double>(total_ways - hp_ways);
  link_capacity = machine.link.capacity_bytes_per_sec;
  footprint_sum = 0.0;
  for (const auto* s : bes) footprint_sum += s->footprint_bytes;
}

double predict_efu(const EfuOperands& ops,
                   std::span<const AppSignal* const> bes,
                   const AppSignal* joining) {
  const std::size_t n_bes = bes.size() + (joining ? 1 : 0);
  // Per-thread scratch: zeroing kMaxCores stack entries on every call
  // would cost a large share of it. Only the first `n` entries are read.
  thread_local std::array<metrics::IpcPair, sim::kMaxCores> pairs;
  if (n_bes >= pairs.size()) {
    throw std::length_error("predict_efu: more apps than sim::kMaxCores");
  }

  // The BE pool splits in proportion to MRC footprint: a streaming app
  // with no reuse mass takes (and gains from) almost nothing, a deep-knee
  // app claims most of the pool. Footprint-less mixes fall back to an
  // even split.
  double footprint_sum = ops.footprint_sum;
  if (joining) footprint_sum += joining->footprint_bytes;

  std::size_t n = 0;
  double demand = ops.hp_bw;
  pairs[n++] = ops.hp;
  const auto add = [&](const AppSignal& s) {
    const double share =
        footprint_sum > 0.0
            ? ops.be_ways * (s.footprint_bytes / footprint_sum)
            : ops.be_ways / static_cast<double>(n_bes);
    const double w = std::clamp(share, 1.0, ops.be_ways);
    pairs[n++] = {s.ipc_alone, s.ipc_at_ways(w)};
    demand += s.bw_by_ways[static_cast<std::size_t>(w) - 1];
  };
  for (const auto* s : bes) add(*s);
  if (joining) add(*joining);

  // Oversubscribing the memory link slows everyone proportionally —
  // a crude but monotone stand-in for the saturating-link model.
  const double capacity = ops.link_capacity;
  const double link_factor =
      demand > capacity && demand > 0.0 ? capacity / demand : 1.0;
  for (std::size_t i = 0; i < n; ++i) pairs[i].colocated *= link_factor;

  return metrics::effective_utilisation({pairs.data(), n});
}

double predict_efu(const AppDirectory& dir, const AppSignal& hp_sig,
                   std::span<const AppSignal* const> bes,
                   const AppSignal* joining) {
  EfuOperands ops;
  ops.assign(dir, hp_sig, bes);
  return predict_efu(ops, bes, joining);
}

}  // namespace dicer::fleet

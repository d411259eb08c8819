// Per-application placement signals, and predict_efu(), the model that
// combines them into a machine's predicted EFU.
//
// Placement needs to predict, cheaply and per candidate machine, how well
// a tenant would run with some slice of the LLC — exactly what a miss-ratio
// curve buys. The directory distils each catalog app's profile into an
// ipc-vs-ways table (solo steady state, the closed-form evaluator — a few
// microseconds per point) plus the footprint/bandwidth scalars
// predict_efu() combines. For trace-derived apps the underlying curves
// come from the single-pass reuse-distance profiler at SHARDS sample rate
// 0.25 (`sim::profile_mrc`, ~25-45 ms per app on the 20 MB production
// geometry over 1.2 M accesses; the apps profile concurrently, see
// sim/core/trace_apps.hpp), so a fleet over `trace_augmented_catalog()`
// places straight off sampled MRC profiles; the analytic catalog apps
// evaluate their calibrated MRCs directly. Built once per fleet,
// immutable afterwards, shared read-only across stepping shards.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "sim/core/catalog.hpp"
#include "sim/machine.hpp"

namespace dicer::fleet {

/// What the placement engines know about one application.
struct AppSignal {
  const sim::AppProfile* profile = nullptr;
  /// Dense directory-local id in [0, AppDirectory::size()) — the key the
  /// PlacementIndex per-app score caches are indexed by.
  std::size_t id = 0;
  /// Solo steady-state IPC with w ways, at index w-1 (w in 1..llc.ways).
  std::vector<double> ipc_by_ways;
  /// Solo achieved memory bandwidth with w ways, at index w-1 (bytes/s).
  std::vector<double> bw_by_ways;
  double ipc_alone = 0.0;        ///< full-LLC solo IPC (the QoS reference)
  double footprint_bytes = 0.0;  ///< largest phase footprint (reuse mass)
  /// Ways at which the app reaches `hp_fraction` of its solo IPC — the
  /// partition an HP of this app effectively claims under DICER.
  unsigned ways_needed = 1;

  /// ipc_by_ways at a fractional way count (linear between points,
  /// clamped to [1, ways]).
  double ipc_at_ways(double ways) const noexcept;
};

class AppDirectory {
 public:
  /// Evaluates every catalog app against `machine` geometry. `hp_fraction`
  /// sets the ways_needed threshold (default 0.95 — DICER's "close to
  /// solo" operating point).
  AppDirectory(const sim::AppCatalog& catalog,
               const sim::MachineConfig& machine, double hp_fraction = 0.95);

  /// Throws std::out_of_range for an app the catalog did not contain.
  const AppSignal& signal(const std::string& name) const;

  const sim::MachineConfig& machine() const noexcept { return machine_; }
  std::size_t size() const noexcept { return signals_.size(); }

 private:
  sim::MachineConfig machine_;
  std::map<std::string, AppSignal> signals_;
};

/// The terms of predict_efu() that do not depend on a joining app,
/// computed once for one machine: the HP's pair and bandwidth at its ways,
/// the BE pool and the BEs' footprint sum (in core order). The placement
/// index keeps one per placement class.
struct EfuOperands {
  metrics::IpcPair hp{};       ///< the HP's {ipc_alone, IPC at hp_ways}
  double hp_bw = 0.0;          ///< the HP's bandwidth at hp_ways
  double be_ways = 0.0;        ///< ways left to the BE pool
  double footprint_sum = 0.0;  ///< the BEs' footprints, summed in core order
  double link_capacity = 0.0;  ///< memory link bytes/s

  /// The operands of `hp_sig`'s HP plus the BEs `bes` on `dir`'s machine.
  void assign(const AppDirectory& dir, const AppSignal& hp_sig,
              std::span<const AppSignal* const> bes);
};

/// Predicted EFU of the machine whose operands are `ops` and whose BEs are
/// `bes` (the list `ops` was assigned from, in core order — the
/// floating-point sums walk them in that order) and, when given, `joining`
/// after them: the machine as it would be with one more tenant. A pure
/// function of its operands; allocation-free. Throws std::length_error
/// when the apps outnumber sim::kMaxCores.
double predict_efu(const EfuOperands& ops,
                   std::span<const AppSignal* const> bes,
                   const AppSignal* joining = nullptr);

/// The same for `hp_sig`'s HP plus the BEs `bes`.
double predict_efu(const AppDirectory& dir, const AppSignal& hp_sig,
                   std::span<const AppSignal* const> bes,
                   const AppSignal* joining = nullptr);

}  // namespace dicer::fleet

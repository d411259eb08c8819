// fleet::Dashboard — renders a terminal "fleet top" frame from the
// per-epoch metrics stream.
//
// The dashboard is a pure fold over EpochMetrics rows: feed it one row per
// epoch (plus the per-machine stats for the worst-K table) and it returns a
// frame string. It keeps a sliding history for the sparklines and a burn
// window for SLO alerting, but touches no global state and does no I/O —
// examples/fleet_top owns the screen, tests just assert on frames.
//
// Burn-rate alerting follows the SRE error-budget idiom: with an SLO
// budget of `slo_budget` (the violation rate a healthy fleet is allowed),
//
//   burn = mean(slo_violation_rate_occupied over the last burn_window
//               epochs) / slo_budget
//
// and an ALERT line fires while burn >= burn_alert (e.g. 2x means the
// fleet is eating its error budget at twice the sustainable pace).
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "fleet/cluster.hpp"

namespace dicer::fleet {

/// Unicode block-element sparkline of `values` scaled to [lo, hi]
/// (lo/hi from the data when equal). Empty input renders "".
std::string sparkline(std::span<const double> values);

struct DashboardConfig {
  unsigned top_k = 5;         ///< machines in the worst-by-slowdown table
  unsigned history = 48;      ///< sparkline length (epochs)
  unsigned burn_window = 5;   ///< epochs averaged for the burn rate
  double slo_budget = 0.05;   ///< tolerated occupied SLO-violation rate
  double burn_alert = 2.0;    ///< alert when burn >= this multiple
  bool ansi = false;          ///< colour + screen-clear escape codes
};

class Dashboard {
 public:
  /// Throws std::invalid_argument unless top_k, history and burn_window
  /// are >= 1, slo_budget is in (0, 1] and burn_alert is > 0.
  explicit Dashboard(const DashboardConfig& config = {});

  /// Fold one epoch in and return the rendered frame. `stats` is the
  /// cluster's last_epoch_stats() (may be empty: the worst-K table is
  /// then omitted).
  std::string render(const EpochMetrics& m,
                     std::span<const MachineEpochStat> stats);

  /// Error-budget burn over the current window (0 until the first row).
  double burn_rate() const noexcept { return burn_; }
  /// Whether the ALERT line is currently firing.
  bool alert_active() const noexcept { return alert_active_; }
  /// Epochs (not edges) during which the alert fired so far.
  std::uint64_t alerts_fired() const noexcept { return alerts_fired_; }

  const DashboardConfig& config() const noexcept { return config_; }

 private:
  void push(std::deque<double>& series, double v);

  DashboardConfig config_;
  std::deque<double> efu_hist_;
  std::deque<double> slowdown_p99_hist_;
  std::deque<double> violation_hist_;  ///< occupied rate, burn_window long
  double burn_ = 0.0;
  bool alert_active_ = false;
  std::uint64_t alerts_fired_ = 0;
};

}  // namespace dicer::fleet

#include "fleet/dashboard.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace dicer::fleet {
namespace {

// Eight block elements, U+2581..U+2588.
const char* const kBlocks[] = {"▁", "▂", "▃", "▄",
                               "▅", "▆", "▇", "█"};

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

}  // namespace

std::string sparkline(std::span<const double> values) {
  if (values.empty()) return "";
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  out.reserve(values.size() * 3);
  const double span = hi - lo;
  for (double v : values) {
    int idx = 0;
    if (span > 0.0) {
      idx = static_cast<int>((v - lo) / span * 7.0 + 0.5);
      idx = std::clamp(idx, 0, 7);
    }
    out += kBlocks[idx];
  }
  return out;
}

Dashboard::Dashboard(const DashboardConfig& config) : config_(config) {
  if (config_.top_k == 0 || config_.history == 0 ||
      config_.burn_window == 0) {
    throw std::invalid_argument(
        "Dashboard: top_k, history and burn_window must be >= 1");
  }
  if (!(config_.slo_budget > 0.0 && config_.slo_budget <= 1.0)) {
    throw std::invalid_argument("Dashboard: slo_budget must be in (0, 1]");
  }
  if (!(config_.burn_alert > 0.0)) {
    throw std::invalid_argument("Dashboard: burn_alert must be > 0");
  }
}

void Dashboard::push(std::deque<double>& series, double v) {
  series.push_back(v);
  while (series.size() > config_.history) series.pop_front();
}

std::string Dashboard::render(const EpochMetrics& m,
                              std::span<const MachineEpochStat> stats) {
  push(efu_hist_, m.fleet_efu);
  push(slowdown_p99_hist_, m.hp_slowdown_p99);

  violation_hist_.push_back(m.slo_violation_rate_occupied);
  while (violation_hist_.size() > config_.burn_window) {
    violation_hist_.pop_front();
  }
  double window_sum = 0.0;
  for (double v : violation_hist_) window_sum += v;
  burn_ = window_sum / static_cast<double>(violation_hist_.size()) /
          config_.slo_budget;
  alert_active_ = burn_ >= config_.burn_alert;
  if (alert_active_) ++alerts_fired_;

  const char* bold = config_.ansi ? "\x1b[1m" : "";
  const char* red = config_.ansi ? "\x1b[31m" : "";
  const char* reset = config_.ansi ? "\x1b[0m" : "";

  std::string out;
  out.reserve(1024);
  out += bold;
  out += "fleet_top  epoch " + std::to_string(m.epoch) +
         fmt("  t=%.1fs", m.t_sec) + "  tenants " +
         std::to_string(m.tenants) + "  occupied " +
         std::to_string(m.occupied_machines) + "\n";
  out += reset;

  std::vector<double> efu_vec(efu_hist_.begin(), efu_hist_.end());
  std::vector<double> sd_vec(slowdown_p99_hist_.begin(),
                             slowdown_p99_hist_.end());
  out += "  EFU  mean " + fmt("%.3f", m.fleet_efu) + "  p50 " +
         fmt("%.3f", m.efu_p50) + "  p95 " + fmt("%.3f", m.efu_p95) +
         "  p99 " + fmt("%.3f", m.efu_p99) + "  " + sparkline(efu_vec) +
         "\n";
  out += "  HP slowdown  p50 " + fmt("%.3f", m.hp_slowdown_p50) + "  p95 " +
         fmt("%.3f", m.hp_slowdown_p95) + "  p99 " +
         fmt("%.3f", m.hp_slowdown_p99) + "  max " +
         fmt("%.3f", m.hp_slowdown_max) + "  " + sparkline(sd_vec) + "\n";
  out += "  SLO  violations " + std::to_string(m.slo_violations) +
         "  rate(occupied) " + fmt("%.3f", m.slo_violation_rate_occupied) +
         "  burn " + fmt("%.2f", burn_) + "x of " +
         fmt("%.0f%%", config_.slo_budget * 100.0) + " budget\n";
  out += "  churn  +" + std::to_string(m.arrivals) + " -" +
         std::to_string(m.departures) + "  rejected " +
         std::to_string(m.rejected) + "  migrations " +
         std::to_string(m.migrations) + "\n";

  if (alert_active_) {
    out += red;
    out += "  ALERT: SLO burn " + fmt("%.2f", burn_) + "x >= " +
           fmt("%.2f", config_.burn_alert) +
           "x alert threshold over last " +
           std::to_string(violation_hist_.size()) + " epoch(s)\n";
    out += reset;
  }

  if (!stats.empty()) {
    // Worst machines by HP slowdown; index breaks ties so the frame is
    // deterministic.
    std::vector<const MachineEpochStat*> worst;
    worst.reserve(stats.size());
    for (const auto& s : stats) worst.push_back(&s);
    std::sort(worst.begin(), worst.end(),
              [](const MachineEpochStat* a, const MachineEpochStat* b) {
                if (a->hp_slowdown != b->hp_slowdown) {
                  return a->hp_slowdown > b->hp_slowdown;
                }
                return a->machine < b->machine;
              });
    const std::size_t k =
        std::min<std::size_t>(config_.top_k, worst.size());
    out += "  worst machines (by HP slowdown):\n";
    out += "    machine  hp            slowdown  efu    rho    tenants\n";
    for (std::size_t i = 0; i < k; ++i) {
      const MachineEpochStat& s = *worst[i];
      char line[160];
      std::snprintf(line, sizeof(line),
                    "    %-8u %-13s %-9.3f %-6.3f %-6.3f %u%s\n",
                    s.machine, s.hp ? s.hp->name.c_str() : "?",
                    s.hp_slowdown, s.efu, s.link_rho, s.tenants,
                    s.slo_violated ? "  [SLO]" : "");
      out += line;
    }
  }
  return out;
}

}  // namespace dicer::fleet

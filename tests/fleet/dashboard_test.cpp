#include "fleet/dashboard.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/core/catalog.hpp"

namespace dicer::fleet {
namespace {

TEST(Sparkline, ScalesToBlocks) {
  const std::vector<double> ramp{0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  const std::string s = sparkline(ramp);
  EXPECT_EQ(s, "▁▂▃▄▅▆▇█");
  // Flat input renders the lowest block, not a divide-by-zero artifact.
  const std::vector<double> flat{1.0, 1.0, 1.0};
  EXPECT_EQ(sparkline(flat), "▁▁▁");
  EXPECT_EQ(sparkline({}), "");
}

TEST(Dashboard, BurnRateMath) {
  DashboardConfig dc;
  dc.burn_window = 4;
  dc.slo_budget = 0.10;
  dc.burn_alert = 2.0;
  Dashboard dash(dc);
  EpochMetrics m;
  // Two healthy epochs: burn 0, no alert.
  m.slo_violation_rate_occupied = 0.0;
  dash.render(m, {});
  dash.render(m, {});
  EXPECT_DOUBLE_EQ(dash.burn_rate(), 0.0);
  EXPECT_FALSE(dash.alert_active());
  // One hot epoch: window mean (0+0+0.9)/3 = 0.3 -> burn 3x, alert fires.
  m.slo_violation_rate_occupied = 0.9;
  dash.render(m, {});
  EXPECT_NEAR(dash.burn_rate(), 3.0, 1e-9);
  EXPECT_TRUE(dash.alert_active());
  EXPECT_EQ(dash.alerts_fired(), 1u);
  // The alert stays active while the hot epoch remains inside the sliding
  // window (3 more renders at window 4), then clears once it slides out.
  m.slo_violation_rate_occupied = 0.0;
  dash.render(m, {});
  dash.render(m, {});
  dash.render(m, {});
  EXPECT_TRUE(dash.alert_active());
  dash.render(m, {});
  EXPECT_DOUBLE_EQ(dash.burn_rate(), 0.0);
  EXPECT_FALSE(dash.alert_active());
  EXPECT_EQ(dash.alerts_fired(), 4u);
}

// A setting the dashboard cannot honour is refused, not rewritten: a zero
// budget or window would otherwise run against values nobody asked for.
TEST(Dashboard, RejectsSettingsItCannotHonour) {
  EXPECT_NO_THROW(Dashboard(DashboardConfig{}));
  const auto with = [](auto set) {
    DashboardConfig dc;
    set(dc);
    return dc;
  };
  EXPECT_THROW(Dashboard(with([](auto& dc) { dc.top_k = 0; })),
               std::invalid_argument);
  EXPECT_THROW(Dashboard(with([](auto& dc) { dc.history = 0; })),
               std::invalid_argument);
  EXPECT_THROW(Dashboard(with([](auto& dc) { dc.burn_window = 0; })),
               std::invalid_argument);
  for (const double budget : {0.0, -1.0, 1.5}) {
    EXPECT_THROW(Dashboard(with([&](auto& dc) { dc.slo_budget = budget; })),
                 std::invalid_argument)
        << budget;
  }
  EXPECT_NO_THROW(Dashboard(with([](auto& dc) { dc.slo_budget = 1.0; })));
  for (const double alert : {0.0, -2.0}) {
    EXPECT_THROW(Dashboard(with([&](auto& dc) { dc.burn_alert = alert; })),
                 std::invalid_argument)
        << alert;
  }
}

// An overloaded seeded scenario must actually light the dashboard up:
// p99 slowdown rendered, worst machines ranked, and the burn-rate alert
// firing at least once — the acceptance demo as a test.
TEST(Dashboard, OverloadScenarioFiresAlertAndRanksWorst) {
  FleetConfig fc;
  fc.num_machines = 24;
  fc.cores_used = 4;
  fc.churn.arrival_rate_per_sec = 30.0;  // heavy churn: machines pack full
  fc.churn.mean_lifetime_sec = 12.0;
  fc.churn.seed = 17;
  fc.seed = 11;
  fc.jobs = 1;
  fc.slo_norm = 0.97;  // tight SLO: contention violates it readily
  Cluster cluster(fc, sim::default_catalog());

  DashboardConfig dc;
  dc.top_k = 3;
  dc.burn_window = 3;
  dc.slo_budget = 0.02;
  dc.burn_alert = 2.0;
  Dashboard dash(dc);

  std::string last;
  for (int e = 0; e < 8; ++e) {
    const EpochMetrics m = cluster.step_epoch();
    last = dash.render(m, cluster.last_epoch_stats());
  }
  EXPECT_GE(dash.alerts_fired(), 1u);
  EXPECT_NE(last.find("p99"), std::string::npos);
  EXPECT_NE(last.find("worst machines"), std::string::npos);
  EXPECT_NE(last.find("ALERT"), std::string::npos);
  EXPECT_NE(last.find("burn"), std::string::npos);
  // Plain mode: no ANSI escapes in the frame.
  EXPECT_EQ(last.find("\x1b["), std::string::npos);

  // The worst-K table is ranked: parse the slowdown column back out and
  // check it is non-increasing.
  const auto table = last.substr(last.find("worst machines"));
  std::vector<double> slowdowns;
  std::size_t pos = 0;
  int lines = 0;
  while ((pos = table.find('\n', pos)) != std::string::npos && lines < 6) {
    ++pos;
    ++lines;
  }
  const auto& stats = cluster.last_epoch_stats();
  std::vector<double> sorted;
  for (const auto& s : stats) sorted.push_back(s.hp_slowdown);
  std::sort(sorted.rbegin(), sorted.rend());
  // The frame's top entry must be the true fleet-wide max slowdown.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", sorted[0]);
  EXPECT_NE(table.find(buf), std::string::npos);
}

TEST(Dashboard, AnsiModeEmitsColour) {
  DashboardConfig dc;
  dc.ansi = true;
  dc.burn_window = 1;
  dc.slo_budget = 0.01;
  dc.burn_alert = 1.0;
  Dashboard dash(dc);
  EpochMetrics m;
  m.slo_violation_rate_occupied = 1.0;  // instant alert
  const std::string frame = dash.render(m, {});
  EXPECT_NE(frame.find("\x1b[1m"), std::string::npos);  // bold header
  EXPECT_NE(frame.find("\x1b[31m"), std::string::npos);  // red alert
  EXPECT_TRUE(dash.alert_active());
}

}  // namespace
}  // namespace dicer::fleet

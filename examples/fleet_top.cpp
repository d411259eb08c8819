// fleet_top — a terminal dashboard over the fleet simulation: per-epoch
// EFU / SLO sparklines, the worst-K machines by HP slowdown, and an
// SRE-style error-budget burn-rate alert line.
//
//   ./fleet_top [--machines 64] [--epochs 30] [--cores 6] [...]
//               [--top 5] [--window 48] [--burn-window 5]
//               [--slo-budget 0.05] [--burn-alert 2.0]
//               [--refresh-ms 0] [--plain]
//
// Shares every fleet-shape flag with fleet_sim (--machines, --policy,
// --placement, --arrival-rate, --seed, --jobs, ...; see
// examples/fleet_common.hpp). On a TTY each epoch repaints the screen in
// place (ANSI home+clear); --plain (or a non-TTY stdout, e.g. CI logs)
// appends frames instead. --refresh-ms throttles the repaint so a human
// can watch a fast simulation.
//
// The alert fires while
//   mean(occupied SLO-violation rate over --burn-window epochs)
//     >= --burn-alert * --slo-budget
// i.e. the fleet is burning its error budget at --burn-alert times the
// sustainable pace.
#include <unistd.h>

#include <chrono>
#include <iostream>
#include <thread>

#include "fleet_common.hpp"
#include "fleet/cluster.hpp"
#include "fleet/dashboard.hpp"
#include "util/cli.hpp"
#include "util/observability.hpp"

static int run(int argc, char** argv) {
  using namespace dicer;

  const util::CliArgs args(argc, argv);
  const std::uint64_t epochs = args.get_count("epochs", 30);
  const unsigned refresh_ms = args.get_count("refresh-ms", 0);

  const sim::AppCatalog catalog = examples::catalog_from(args);
  util::ObservabilityFlags env(args);
  fleet::FleetConfig fc = examples::fleet_config_from(args);

  const bool tty = isatty(fileno(stdout)) != 0;
  fleet::DashboardConfig dc;
  dc.top_k = args.get_count("top", 5, 1);
  dc.history = args.get_count("window", 48, 1);
  dc.burn_window = args.get_count("burn-window", 5, 1);
  dc.slo_budget = args.get_fraction("slo-budget", 0.05);
  dc.burn_alert = args.get_double("burn-alert", 2.0);
  if (!(dc.burn_alert > 0.0)) {
    throw util::CliError("invalid value for --burn-alert: '" +
                         args.get_or("burn-alert", "") +
                         "' (expected a number > 0)");
  }
  dc.ansi = tty && !args.get_bool("plain", false);

  fleet::Cluster cluster(fc, catalog);
  fleet::Dashboard dash(dc);

  for (std::uint64_t e = 0; e < epochs; ++e) {
    const fleet::EpochMetrics m = cluster.step_epoch();
    const std::string frame = dash.render(m, cluster.last_epoch_stats());
    if (dc.ansi) std::cout << "\x1b[H\x1b[2J";  // home + clear
    std::cout << frame;
    if (!dc.ansi) std::cout << '\n';  // frame separator when appending
    std::cout.flush();
    if (refresh_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
    }
  }
  std::cout << "done: " << epochs << " epochs, burn "
            << dash.burn_rate() << "x, alert epochs "
            << dash.alerts_fired() << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}

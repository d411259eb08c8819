// Quickstart: consolidate one HP application with nine BE instances under
// the paper's co-location policies (UM, CT, DICER) and DICER's variants
// (DICER-noBW, DICER+MBA), and compare HP QoS and effective system
// utilisation: a one-screen summary of what each allocation strategy
// trades away.
//
//   ./quickstart [--hp milc1] [--be gcc_base3] [--cores 10] [--slo 0.9]
//                [--trace-apps] [--profile] [--trace PATH] [--log-level L]
//
// MBA is enabled so DICER+MBA can throttle; the other policies never
// throttle, so it changes nothing for them. --slo (in (0, 1]) is the HP
// normalised-IPC target behind the SLO and SUCI (lambda = 1) columns.
// --trace-apps augments the catalog with the trace-derived apps
// (trace_stream1, trace_wset1, trace_bimodal1, trace_mix1): each is
// profiled from its address stream with the single-pass sampled MRC
// profiler on every run, so they are usable as --hp/--be like any
// analytic app. --profile prints the scoped-timer/counter table (incl. the
// profiler.* group) to stderr on exit; --trace and --log-level work as in
// every front end (util/observability.hpp).
#include <cstdio>
#include <iostream>

#include "harness/consolidation.hpp"
#include "harness/solo.hpp"
#include "metrics/metrics.hpp"
#include "policy/factory.hpp"
#include "sim/core/catalog.hpp"
#include "sim/core/trace_apps.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/observability.hpp"
#include "util/table.hpp"

static int run(int argc, char** argv) {
  using namespace dicer;

  const util::CliArgs args(argc, argv);
  const util::ObservabilityFlags observability(args);
  const std::string hp_name = args.get_or("hp", "milc1");
  const std::string be_name = args.get_or("be", "gcc_base3");
  harness::ConsolidationConfig config;
  config.cores_used = args.get_count("cores", 10, 2, config.machine.num_cores);
  config.enable_mba = true;  // let DICER+MBA play too
  const double slo = args.get_fraction("slo", 0.90);

  const bool trace_apps = args.has("trace-apps");
  const sim::AppCatalog catalog =
      trace_apps ? sim::trace_augmented_catalog() : sim::default_catalog();
  const auto& hp = catalog.by_name(hp_name);
  const auto& be = catalog.by_name(be_name);

  // Solo references: every QoS metric is normalised to running alone with
  // the full LLC (paper §4.1).
  const auto hp_alone =
      harness::solo_steady_state(hp, config.machine.llc.ways, config.machine);
  const auto be_alone =
      harness::solo_steady_state(be, config.machine.llc.ways, config.machine);

  std::cout << "HP  " << hp.name << " (" << to_string(hp.app_class)
            << "): IPC alone = " << hp_alone.ipc << ", solo run "
            << hp_alone.time_sec << " s\n";
  std::cout << "BEs " << be.name << " x" << (config.cores_used - 1) << " ("
            << to_string(be.app_class)
            << "): IPC alone = " << be_alone.ipc << "\n";
  std::cout << "SLO: HP norm >= " << slo << "\n\n";

  util::TextTable table;
  table.set_header({"policy", "HP IPC", "HP slowdown", "HP norm", "BE norm",
                    "EFU", "link rho", "window s", "SLO?", "SUCI(l=1)"});
  for (const std::string name :
       {"UM", "CT", "DICER", "DICER-noBW", "DICER+MBA"}) {
    const auto policy = policy::make_policy(name);
    const auto res = harness::run_consolidation(hp, be, *policy, config);
    const double norm = res.hp_ipc / hp_alone.ipc;
    const bool met = norm >= slo;
    const double efu = metrics::effective_utilisation(
        res.ipc_pairs(hp_alone.ipc, be_alone.ipc));
    table.add_row({name, util::fmt_fixed(res.hp_ipc, 3),
                   util::fmt_fixed(metrics::slowdown(hp_alone.ipc, res.hp_ipc),
                                   3),
                   util::fmt_fixed(norm, 3),
                   util::fmt_fixed(res.be_ipc_mean / be_alone.ipc, 3),
                   util::fmt_fixed(efu, 3),
                   util::fmt_fixed(res.avg_link_utilisation, 3),
                   util::fmt_fixed(res.window_sec, 3), met ? "yes" : "NO",
                   util::fmt_fixed(metrics::suci(met, efu, 1.0), 3)});
  }
  table.print();
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}

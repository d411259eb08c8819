// Quickstart: consolidate one HP application with nine BE instances under
// the three co-location policies from the paper (UM, CT, DICER) and compare
// HP QoS and effective system utilisation.
//
//   ./quickstart [--hp milc1] [--be gcc_base3] [--cores 10] [--trace-apps]
//                [--profile] [--trace PATH] [--log-level L]
//
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
            << "): IPC alone = " << be_alone.ipc << "\n\n";

  util::TextTable table;
  table.set_header({"policy", "HP IPC", "HP slowdown", "HP norm", "BE norm",
                    "EFU", "link rho", "window s"});
  for (const std::string name : {"UM", "CT", "DICER"}) {
    const auto policy = policy::make_policy(name);
    const auto res = harness::run_consolidation(hp, be, *policy, config);
    const auto pairs = res.ipc_pairs(hp_alone.ipc, be_alone.ipc);
    table.add_row(name,
                  {res.hp_ipc, metrics::slowdown(hp_alone.ipc, res.hp_ipc),
                   res.hp_ipc / hp_alone.ipc, res.be_ipc_mean / be_alone.ipc,
                   metrics::effective_utilisation(pairs),
                   res.avg_link_utilisation, res.window_sec},
                  3);
  }
  table.print();
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}

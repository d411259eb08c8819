// Capacity planner: the provider-side question the paper motivates — given
// a High-Priority application with an SLO, how many Best-Effort instances
// can be co-located under each policy before the SLO breaks, and what
// utilisation does that buy?
//
//   ./capacity_planner [--hp Xalan1] [--be gcc_base3] [--slo 0.9]
#include <iostream>

#include "harness/consolidation.hpp"
#include "harness/solo.hpp"
#include "metrics/metrics.hpp"
#include "policy/factory.hpp"
#include "sim/core/catalog.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

static int run(int argc, char** argv) {
  using namespace dicer;

  const util::CliArgs args(argc, argv);
  const std::string hp_name = args.get_or("hp", "Xalan1");
  const std::string be_name = args.get_or("be", "gcc_base3");
  const double slo = args.get_fraction("slo", 0.90);

  const auto& catalog = sim::default_catalog();
  const auto& hp = catalog.by_name(hp_name);
  const auto& be = catalog.by_name(be_name);

  harness::ConsolidationConfig config;
  const double hp_alone =
      harness::solo_steady_state(hp, config.machine.llc.ways, config.machine)
          .ipc;
  const double be_alone =
      harness::solo_steady_state(be, config.machine.llc.ways, config.machine)
          .ipc;

  std::cout << "Capacity plan: HP " << hp_name << " (SLO " << slo * 100
            << "% of IPC " << util::fmt(hp_alone) << "), BE " << be_name
            << "\n\n";

  util::TextTable table;
  table.set_header({"policy", "max BEs", "HP norm @max", "EFU @max",
                    "BE throughput (norm-sum)"});
  for (const std::string pname : {"UM", "CT", "DICER"}) {
    unsigned best_bes = 0;
    double best_norm = 1.0, best_efu = 1.0, best_tp = 0.0;
    for (unsigned cores = 2; cores <= config.machine.num_cores; ++cores) {
      const auto pol = policy::make_policy(pname);
      harness::ConsolidationConfig cc = config;
      cc.cores_used = cores;
      const auto res = harness::run_consolidation(hp, be, *pol, cc);
      const double norm = res.hp_ipc / hp_alone;
      if (norm < slo) break;  // one more BE would violate the SLA
      best_bes = cores - 1;
      best_norm = norm;
      best_efu = metrics::effective_utilisation(
          res.ipc_pairs(hp_alone, be_alone));
      best_tp = static_cast<double>(res.be_ipcs.size()) *
                (res.be_ipc_mean / be_alone);
    }
    if (best_bes == 0) {
      table.add_row({pname, "0 (SLO breaks at 1 BE)", "-", "-", "-"});
    } else {
      table.add_row(pname + "  " + std::to_string(best_bes) + " BEs",
                    {best_norm, best_efu, best_tp}, 3);
    }
  }
  table.print();

  std::cout << "\n'max BEs' is the largest co-location that still meets the "
               "SLO;\nBE throughput sums the normalised IPC of all BE "
               "instances at that point.\n";
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}

// Policy face-off: run every policy (including the extensions) on one
// workload and print the full QoS/utilisation picture — a one-screen
// summary of what each allocation strategy trades away.
//
//   ./policy_faceoff [--hp milc1] [--be lbm1] [--cores 10] [--slo 0.9]
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
  const std::string hp_name = args.get_or("hp", "milc1");
  const std::string be_name = args.get_or("be", "lbm1");
  harness::ConsolidationConfig config;
  config.cores_used = args.get_count("cores", 10, 2, config.machine.num_cores);
  const double slo = args.get_double("slo", 0.90);

  const auto& catalog = sim::default_catalog();
  const auto& hp = catalog.by_name(hp_name);
  const auto& be = catalog.by_name(be_name);

  config.enable_mba = true;  // let DICER+MBA play too
  const double hp_alone =
      harness::solo_steady_state(hp, config.machine.llc.ways, config.machine)
          .ipc;
  const double be_alone =
      harness::solo_steady_state(be, config.machine.llc.ways, config.machine)
          .ipc;

  std::cout << "Face-off: HP " << hp_name << " (" << to_string(hp.app_class)
            << ") vs " << (config.cores_used - 1) << "x " << be_name << " ("
            << to_string(be.app_class) << "), SLO " << slo * 100 << "%\n\n";

  util::TextTable table;
  table.set_header({"policy", "HP norm", "SLO?", "BE norm", "EFU",
                    "SUCI(l=1)", "link rho"});
  for (const std::string pname :
       {"UM", "CT", "DICER", "DICER-noBW", "DICER+MBA"}) {
    const auto pol = policy::make_policy(pname);
    const auto res = harness::run_consolidation(hp, be, *pol, config);
    const double norm = res.hp_ipc / hp_alone;
    const bool met = norm >= slo;
    const double efu = metrics::effective_utilisation(
        res.ipc_pairs(hp_alone, be_alone));
    table.add_row({pname, util::fmt_fixed(norm, 3), met ? "yes" : "NO",
                   util::fmt_fixed(res.be_ipc_mean / be_alone, 3),
                   util::fmt_fixed(efu, 3),
                   util::fmt_fixed(metrics::suci(met, efu, 1.0), 3),
                   util::fmt_fixed(res.avg_link_utilisation, 3)});
  }
  table.print();
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}

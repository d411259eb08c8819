// Controller trace: watch DICER think.
//
// Runs one consolidation and prints, for every monitoring period, what the
// controller measured (HP IPC, HP bandwidth, total bandwidth) and what it
// did (allocation, samplings, resets) — the timeline behind Listings 1-3.
//
//   ./controller_trace [--hp GemsFDTD1] [--be gcc_base3] [--cores 10]
//                      [--seconds 40]
#include <cstdio>
#include <iostream>

#include "policy/dicer.hpp"
#include "policy/host.hpp"
#include "sim/core/catalog.hpp"
#include "util/cli.hpp"

static int run(int argc, char** argv) {
  using namespace dicer;

  const util::CliArgs args(argc, argv);
  const std::string hp_name = args.get_or("hp", "GemsFDTD1");
  const std::string be_name = args.get_or("be", "gcc_base3");
  const unsigned cores =
      args.get_count("cores", 10, 2, sim::MachineConfig{}.num_cores);
  const double seconds = args.get_double("seconds", 40.0);

  const auto& catalog = sim::default_catalog();
  policy::Host host({.cores_used = cores}, catalog.by_name(hp_name),
                    &catalog.by_name(be_name));
  const sim::Machine& machine = host.machine();

  policy::Dicer dicer;
  dicer.setup(host.context());

  std::cout << "DICER trace: HP=" << hp_name << " + " << (cores - 1) << "x "
            << be_name << " (BW threshold "
            << dicer.config().membw_threshold_bytes_per_sec * 8 / 1e9
            << " Gbps)\n\n";
  std::printf("%8s %8s %10s %10s %10s %6s %6s %s\n", "t(s)", "HP ways",
              "HP IPC", "HP GB/s", "tot GB/s", "smpl", "reset", "class");

  // Wrap the control loop so we can print between periods. The monitor's
  // state belongs to the policy, so we read the machine's counters
  // directly for display.
  double last_instr = 0.0, last_cycles = 0.0, last_hp_bytes = 0.0;
  double last_total_bytes = 0.0, last_t = 0.0;
  while (machine.time_sec() < seconds) {
    host.step(dicer);

    const auto& hp_tel = machine.telemetry(0);
    double total_bytes = 0.0;
    for (unsigned c = 0; c < cores; ++c) {
      total_bytes += machine.telemetry(c).mem_bytes;
    }
    const double dt = machine.time_sec() - last_t;
    const double ipc = (hp_tel.instructions - last_instr) /
                       (hp_tel.active_cycles - last_cycles);
    const double hp_gbs = (hp_tel.mem_bytes - last_hp_bytes) / dt / 1e9;
    const double tot_gbs = (total_bytes - last_total_bytes) / dt / 1e9;
    std::printf("%8.2f %8u %10.3f %10.2f %10.2f %6llu %6llu %s\n",
                machine.time_sec(), dicer.hp_ways(), ipc, hp_gbs, tot_gbs,
                static_cast<unsigned long long>(dicer.stats().samplings),
                static_cast<unsigned long long>(dicer.stats().phase_resets +
                                                dicer.stats().perf_resets),
                dicer.ct_favoured() ? "CT-F" : "CT-T");
    last_instr = hp_tel.instructions;
    last_cycles = hp_tel.active_cycles;
    last_hp_bytes = hp_tel.mem_bytes;
    last_total_bytes = total_bytes;
    last_t = machine.time_sec();
  }

  const auto& st = dicer.stats();
  std::cout << "\nSummary: " << st.periods << " control actions, "
            << st.samplings << " samplings (" << st.sampling_steps
            << " settle intervals), " << st.way_donations
            << " way donations, " << st.phase_resets << " phase resets, "
            << st.perf_resets << " performance resets, " << st.rollbacks
            << " rollbacks.\n";
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}

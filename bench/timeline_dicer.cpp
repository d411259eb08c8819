// Timeline: the paper's Fig 5-style per-period narrative for one workload.
//
// Runs a single HP + (N-1) BE consolidation under DICER with the trace
// subsystem capturing every controller event, then prints — and writes to
// timeline_dicer.csv — one row per monitoring period: what the controller
// measured (HP IPC, HP/total bandwidth), how it judged it (saturation,
// Eq. 2 phase verdict, Eq. 3 stability verdict), and what it did
// (donation, sampling, reset, rollback). This is the observable story
// behind "workload X lands CT-F / CT-T".
//
//   timeline_dicer [--hp GemsFDTD1] [--be gcc_base3] [--cores 10]
//                  [--seconds 40] [--trace out.jsonl] [--quanta]
//
// --trace additionally streams the raw typed events (JSONL, or CSV when
// the path ends in .csv); the stream is deterministic — byte-identical
// across runs of the same workload. --quanta widens the kind mask to
// include per-quantum machine counters and monitor polls (verbose).
#include <cstdio>

#include "bench_common.hpp"
#include "policy/dicer.hpp"
#include "policy/host.hpp"

namespace {

using namespace dicer;

/// Short action tag for the events a period produced.
std::string action_tag(const trace::Event& e) {
  switch (e.kind) {
    case trace::Kind::kDonation:
      return "donate->" + std::to_string(trace::field_uint(e, "to"));
    case trace::Kind::kSamplingStart: return "sample_start";
    case trace::Kind::kSamplingStep:
      return "sample@" + std::to_string(trace::field_uint(e, "ways"));
    case trace::Kind::kSamplingDone:
      return "sample_done->" +
             std::to_string(trace::field_uint(e, "optimal_ways"));
    case trace::Kind::kPhaseReset: return "phase_reset";
    case trace::Kind::kPerfReset: return "perf_reset";
    case trace::Kind::kResetValidate:
      return "validate:" + trace::field_string(e, "outcome");
    default: return "";
  }
}

}  // namespace

static int run(int argc, char** argv) {
  bench::BenchEnv env(argc, argv);
  const std::string hp_name = env.args.get_or("hp", "GemsFDTD1");
  const std::string be_name = env.args.get_or("be", "gcc_base3");
  const unsigned cores =
      env.args.get_count("cores", 10, 2, sim::MachineConfig{}.num_cores);
  const double seconds = env.args.get_double("seconds", 40.0);
  bench::print_header("Timeline: DICER per-period controller narrative");

  auto& tracer = trace::Tracer::global();
  if (env.args.get_bool("quanta", false)) {
    tracer.set_kinds(trace::kAllKinds & ~trace::mask_of(trace::Kind::kTimer));
  }
  auto capture = std::make_shared<trace::MemorySink>();
  tracer.add_sink(capture);

  const auto& catalog = sim::default_catalog();
  policy::Host host({.cores_used = cores}, catalog.by_name(hp_name),
                    &catalog.by_name(be_name));
  policy::Dicer dicer;
  dicer.setup(host.context());
  while (host.machine().time_sec() < seconds) host.step(dicer);

  tracer.remove_sink(capture);
  const auto events = capture->take();

  std::cout << "HP=" << hp_name << " + " << (cores - 1) << "x " << be_name
            << ", " << seconds << " s, BW threshold "
            << dicer.config().membw_threshold_bytes_per_sec * 8 / 1e9
            << " Gbps\n\n";
  std::printf("%8s %6s %-14s %5s %5s %8s %9s %9s %4s %4s %4s  %s\n", "t(s)",
              "period", "state", "class", "ways", "HP IPC", "HP GB/s",
              "tot GB/s", "sat", "ph", "stbl", "actions");

  util::CsvWriter csv(env.path("timeline_dicer.csv"));
  csv.header({"t_sec", "period", "state", "class", "hp_ways", "hp_ipc",
              "hp_gbps", "total_gbps", "saturated", "phase_change",
              "ipc_stable", "actions"});

  // One timeline row per kPeriod event, annotated with the action events
  // the controller emitted before the next period.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.kind != trace::Kind::kPeriod) continue;
    std::string actions;
    for (std::size_t j = i + 1;
         j < events.size() && events[j].kind != trace::Kind::kPeriod; ++j) {
      const std::string tag = action_tag(events[j]);
      if (tag.empty()) continue;
      if (!actions.empty()) actions += ' ';
      actions += tag;
    }
    const std::string state = trace::field_string(e, "state");
    const std::string cls = trace::field_string(e, "class");
    const double hp_ipc = trace::field_double(e, "hp_ipc");
    const double hp_gbps = trace::field_double(e, "hp_bw_bps") / 1e9;
    const double tot_gbps = trace::field_double(e, "total_bw_bps") / 1e9;
    const bool sat = trace::field_bool(e, "saturated");
    const bool phase = trace::field_bool(e, "phase_change");
    const bool stable = trace::field_bool(e, "ipc_stable");
    const auto ways = trace::field_uint(e, "hp_ways");
    std::printf("%8.2f %6llu %-14s %5s %5llu %8.3f %9.2f %9.2f %4s %4s %4s  %s\n",
                e.t_sec,
                static_cast<unsigned long long>(
                    trace::field_uint(e, "period")),
                state.c_str(), cls.c_str(),
                static_cast<unsigned long long>(ways), hp_ipc, hp_gbps,
                tot_gbps, sat ? "yes" : ".", phase ? "yes" : ".",
                stable ? "yes" : ".", actions.c_str());
    csv.row({util::fmt(e.t_sec),
             std::to_string(trace::field_uint(e, "period")), state, cls,
             std::to_string(ways), util::fmt(hp_ipc), util::fmt(hp_gbps),
             util::fmt(tot_gbps), sat ? "1" : "0", phase ? "1" : "0",
             stable ? "1" : "0", actions});
  }

  const auto& st = dicer.stats();
  std::cout << "\nSummary: " << st.periods << " periods, " << st.samplings
            << " samplings (" << st.sampling_steps << " settle intervals), "
            << st.way_donations << " way donations, " << st.phase_resets
            << " phase resets, " << st.perf_resets << " perf resets, "
            << st.rollbacks << " rollbacks; final HP ways="
            << dicer.hp_ways() << " class="
            << (dicer.ct_favoured() ? "CT-F" : "CT-T") << ".\n";
  std::cout << "CSV: " << env.path("timeline_dicer.csv") << "\n";
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}

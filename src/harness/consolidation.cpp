#include "harness/consolidation.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace dicer::harness {

void record_solver_counters(const sim::SolverStats& stats) {
  auto& reg = trace::TimerRegistry::global();
  reg.add_count("solver.quanta", stats.quanta);
  reg.add_count("solver.replays", stats.replays);
  reg.add_count("solver.solves", stats.solves);
  reg.add_count("solver.solves_stable", stats.stable_solves);
  reg.add_count("solver.rounds", stats.total_rounds());
  reg.add_count("solver.invalidations.actuator", stats.invalidations_actuator);
  reg.add_count("solver.invalidations.fingerprint",
                stats.invalidations_fingerprint);
  for (std::size_t r = 0; r < stats.rounds_hist.size(); ++r) {
    if (stats.rounds_hist[r] != 0) {
      reg.add_count("solver.rounds_hist." + std::to_string(r + 1),
                    stats.rounds_hist[r]);
    }
  }
}

std::vector<metrics::IpcPair> ConsolidationResult::ipc_pairs(
    double hp_alone, double be_alone) const {
  std::vector<metrics::IpcPair> pairs;
  pairs.reserve(1 + be_ipcs.size());
  pairs.push_back({hp_alone, hp_ipc});
  for (double be : be_ipcs) pairs.push_back({be_alone, be});
  return pairs;
}

ConsolidationResult run_consolidation(const sim::AppProfile& hp,
                                      const sim::AppProfile& be,
                                      policy::Policy& policy,
                                      const ConsolidationConfig& config) {
  const unsigned cores_used = config.cores_used;
  if (cores_used < 2 || cores_used > config.machine.num_cores) {
    throw std::invalid_argument(
        "run_consolidation: cores_used must be in [2, machine cores]");
  }
  policy::Host host(config, hp, &be);
  trace::ScopedTimer run_timer("harness.run_consolidation", config.tracer);
  sim::Machine& machine = host.machine();
  const policy::PolicyContext& ctx = host.context();
  auto& tr = trace::resolve(config.tracer);
  tr.emit(trace::Kind::kRunBegin, machine.time_sec(), [&] {
    return std::vector<trace::Field>{{"policy", policy.name()},
                                     {"hp", hp.name},
                                     {"be", be.name},
                                     {"cores", cores_used}};
  });

  policy.setup(host.context());

  // Drive the policy's control loop until everyone has completed at least
  // one full run (paper §4.1) and the minimum window has elapsed, or the
  // safety cap trips.
  double rho_integral = 0.0;
  double t_prev = machine.time_sec();
  bool capped = false;
  for (;;) {
    host.step(policy);
    const double t = machine.time_sec();
    rho_integral += std::min(machine.last_link_utilisation(), 1.0) *
                    (t - t_prev);
    t_prev = t;

    bool everyone_done = machine.telemetry(ctx.hp_core).completions > 0;
    for (unsigned c : ctx.be_cores) {
      everyone_done = everyone_done && machine.telemetry(c).completions > 0;
    }
    if (everyone_done && t >= config.min_window_sec) break;
    if (t >= config.max_window_sec) {
      capped = true;
      break;
    }
  }

  ConsolidationResult res;
  res.policy = policy.name();
  res.window_sec = machine.time_sec();
  res.window_capped = capped;
  const auto& hp_tel = machine.telemetry(ctx.hp_core);
  res.hp_ipc = hp_tel.instructions / hp_tel.active_cycles;
  res.hp_completions = hp_tel.completions;
  double be_sum = 0.0;
  for (unsigned c : ctx.be_cores) {
    const auto& tel = machine.telemetry(c);
    const double ipc = tel.instructions / tel.active_cycles;
    res.be_ipcs.push_back(ipc);
    be_sum += ipc;
    res.be_completions += tel.completions;
  }
  res.be_ipc_mean =
      res.be_ipcs.empty() ? 0.0
                          : be_sum / static_cast<double>(res.be_ipcs.size());
  res.avg_link_utilisation =
      res.window_sec > 0.0 ? rho_integral / res.window_sec : 0.0;
  res.solver = machine.solver_stats();
  record_solver_counters(res.solver);
  tr.emit(trace::Kind::kRunEnd, machine.time_sec(), [&] {
    return std::vector<trace::Field>{{"policy", res.policy},
                                     {"hp", hp.name},
                                     {"be", be.name},
                                     {"cores", cores_used},
                                     {"window_sec", res.window_sec},
                                     {"hp_ipc", res.hp_ipc},
                                     {"be_ipc_mean", res.be_ipc_mean},
                                     {"hp_completions", res.hp_completions},
                                     {"be_completions", res.be_completions},
                                     {"avg_rho", res.avg_link_utilisation},
                                     {"capped", res.window_capped}};
  });
  return res;
}

unsigned resolve_sweep_jobs(unsigned requested) {
  return util::ThreadPool::resolve_jobs(requested, "DICER_SWEEP_JOBS");
}

void run_consolidation_grid(const std::vector<GridCell>& cells,
                            const GridPolicyFactory& make_policy,
                            const GridCellDone& done,
                            const ConsolidationConfig& base, unsigned jobs,
                            const char* label) {
  jobs = resolve_sweep_jobs(jobs);
  const std::size_t n_chunks =
      (cells.size() + kGridChunkCells - 1) / kGridChunkCells;
  std::atomic<std::size_t> finished{0};
  auto eval_chunk = [&](std::size_t chunk) {
    const std::size_t begin = chunk * kGridChunkCells;
    const std::size_t end = std::min(begin + kGridChunkCells, cells.size());
    // Every policy is built before any cell runs, so a failing build
    // aborts its whole chunk.
    std::vector<std::unique_ptr<policy::Policy>> policies;
    for (std::size_t i = begin; i < end; ++i) policies.push_back(make_policy(i));
    ConsolidationConfig config = base;
    for (std::size_t i = begin; i < end; ++i) {
      const GridCell& c = cells[i];
      policy::Policy& policy = *policies[i - begin];
      config.cores_used = c.cores_used;
      done(i, run_consolidation(*c.hp, *c.be, policy, config), policy);
    }
    const std::size_t n = end - begin;
    const std::size_t d = finished.fetch_add(n, std::memory_order_relaxed) + n;
    if (d / 200 != (d - n) / 200 || d == cells.size()) {
      DICER_INFO << label << ": " << d << "/" << cells.size() << " (" << jobs
                 << " jobs)";
    }
  };
  const auto pool = util::waiting_caller_pool(
      static_cast<unsigned>(std::min<std::size_t>(jobs, n_chunks)));
  util::TaskGroup group(pool.get());
  for (std::size_t c = 0; c < n_chunks; ++c) {
    group.run([&eval_chunk, c] { eval_chunk(c); });
  }
  group.wait();
}

}  // namespace dicer::harness

#include "harness/consolidation.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "rdt/capability.hpp"
#include "sim/machine_batch.hpp"
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

namespace {

void check_cores(unsigned cores_used, const ConsolidationConfig& config,
                 const char* who) {
  if (cores_used < 2 || cores_used > config.machine.num_cores) {
    throw std::invalid_argument(std::string(who) +
                                ": cores_used must be in [2, machine cores]");
  }
}

/// One consolidation's platform: the machine, its RDT surface and the
/// policy context, HP attached to core 0 and a BE to every other used core.
struct Lane {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<rdt::CatController> cat;
  std::unique_ptr<rdt::Monitor> monitor;
  std::unique_ptr<rdt::MbaController> mba;
  policy::PolicyContext ctx;
  unsigned batch_lane = 0;  ///< index in the MachineBatch
};

Lane make_lane(const sim::AppProfile& hp, const sim::AppProfile& be,
               unsigned cores_used, const ConsolidationConfig& config) {
  Lane ls;
  sim::MachineConfig machine_config = config.machine;
  if (!machine_config.tracer) machine_config.tracer = config.tracer;
  ls.machine = std::make_unique<sim::Machine>(machine_config);
  const auto cap = rdt::Capability::probe(*ls.machine, config.enable_mba);
  ls.cat = std::make_unique<rdt::CatController>(*ls.machine, cap);
  ls.monitor = std::make_unique<rdt::Monitor>(*ls.machine, cap, config.tracer);
  if (config.enable_mba) {
    ls.mba = std::make_unique<rdt::MbaController>(*ls.machine, cap);
  }
  ls.ctx.machine = ls.machine.get();
  ls.ctx.cat = ls.cat.get();
  ls.ctx.monitor = ls.monitor.get();
  ls.ctx.mba = ls.mba.get();
  ls.ctx.hp_core = 0;
  ls.ctx.tracer = config.tracer;
  for (unsigned c = 1; c < cores_used; ++c) ls.ctx.be_cores.push_back(c);
  ls.machine->attach(ls.ctx.hp_core, &hp);
  for (unsigned c : ls.ctx.be_cores) ls.machine->attach(c, &be);
  return ls;
}

/// Drive a lane's policy control loop to completion and assemble its
/// result, advancing the lane's machine through `batch`.
ConsolidationResult drive_lane(Lane& ls, sim::MachineBatch& batch,
                               const sim::AppProfile& hp,
                               const sim::AppProfile& be,
                               policy::Policy& policy, unsigned cores_used,
                               const ConsolidationConfig& config) {
  trace::ScopedTimer run_timer("harness.run_consolidation", config.tracer);
  sim::Machine& machine = *ls.machine;
  auto& tr = trace::resolve(config.tracer);
  if (tr.enabled(trace::Kind::kRunBegin)) {
    tr.emit(trace::Kind::kRunBegin, machine.time_sec(),
            {{"policy", policy.name()},
             {"hp", hp.name},
             {"be", be.name},
             {"cores", cores_used}});
  }

  policy.setup(ls.ctx);

  // Drive the policy's control loop until everyone has completed at least
  // one full run (paper §4.1) and the minimum window has elapsed, or the
  // safety cap trips.
  double rho_integral = 0.0;
  double t_prev = machine.time_sec();
  bool capped = false;
  for (;;) {
    const double interval =
        std::max(policy.interval_sec(), config.machine.quantum_sec);
    batch.run_for(ls.batch_lane, interval);
    rho_integral +=
        std::min(machine.last_link_utilisation(), 1.0) *
        (machine.time_sec() - t_prev);
    t_prev = machine.time_sec();
    policy.act(ls.ctx);

    const double t = machine.time_sec();
    bool everyone_done = machine.telemetry(ls.ctx.hp_core).completions > 0;
    for (unsigned c : ls.ctx.be_cores) {
      everyone_done = everyone_done && machine.telemetry(c).completions > 0;
    }
    if (everyone_done && t >= config.min_window_sec) break;
    if (t >= config.max_window_sec) {
      capped = true;
      break;
    }
  }
  policy.teardown(ls.ctx);

  ConsolidationResult res;
  res.policy = policy.name();
  res.window_sec = machine.time_sec();
  res.window_capped = capped;
  const auto& hp_tel = machine.telemetry(ls.ctx.hp_core);
  res.hp_ipc = hp_tel.instructions / hp_tel.active_cycles;
  res.hp_completions = hp_tel.completions;
  double be_sum = 0.0;
  for (unsigned c : ls.ctx.be_cores) {
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
  if (tr.enabled(trace::Kind::kRunEnd)) {
    tr.emit(trace::Kind::kRunEnd, machine.time_sec(),
            {{"policy", res.policy},
             {"hp", hp.name},
             {"be", be.name},
             {"cores", cores_used},
             {"window_sec", res.window_sec},
             {"hp_ipc", res.hp_ipc},
             {"be_ipc_mean", res.be_ipc_mean},
             {"hp_completions", res.hp_completions},
             {"be_completions", res.be_completions},
             {"avg_rho", res.avg_link_utilisation},
             {"capped", res.window_capped}});
  }
  return res;
}

}  // namespace

ConsolidationResult run_consolidation(const sim::AppProfile& hp,
                                      const sim::AppProfile& be,
                                      policy::Policy& policy,
                                      const ConsolidationConfig& config) {
  check_cores(config.cores_used, config, "run_consolidation");
  return std::move(
      run_consolidation_batch({{&hp, &be, &policy, config.cores_used}},
                              config)[0]);
}

std::vector<ConsolidationResult> run_consolidation_batch(
    const std::vector<BatchConsolidationTask>& tasks,
    const ConsolidationConfig& base) {
  for (const auto& t : tasks) {
    if (!t.hp || !t.be || !t.policy) {
      throw std::invalid_argument(
          "run_consolidation_batch: task missing hp/be/policy");
    }
    check_cores(t.cores_used, base, "run_consolidation_batch");
  }
  // Lanes are declared before the batch so the batch (which unhooks its
  // shared phase table from every machine on destruction) dies first.
  // Every lane is built before any runs, so each lane's policy sees the
  // same pristine time-0 machine it would serially.
  std::vector<Lane> lanes;
  sim::MachineBatch batch;
  lanes.reserve(tasks.size());
  for (const auto& t : tasks) {
    lanes.push_back(make_lane(*t.hp, *t.be, t.cores_used, base));
    lanes.back().batch_lane = batch.add(*lanes.back().machine);
  }

  std::vector<ConsolidationResult> out;
  out.reserve(tasks.size());
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    const BatchConsolidationTask& t = tasks[k];
    out.push_back(drive_lane(lanes[k], batch, *t.hp, *t.be, *t.policy,
                             t.cores_used, base));
  }
  return out;
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
  // Consecutive cells go through one MachineBatch, whose phase table dedups
  // across lanes that share an app.
  const std::size_t n_chunks =
      (cells.size() + kGridChunkCells - 1) / kGridChunkCells;
  std::atomic<std::size_t> finished{0};
  auto eval_chunk = [&](std::size_t chunk) {
    const std::size_t begin = chunk * kGridChunkCells;
    const std::size_t end = std::min(begin + kGridChunkCells, cells.size());
    std::vector<std::unique_ptr<policy::Policy>> policies;
    std::vector<BatchConsolidationTask> tasks;
    for (std::size_t i = begin; i < end; ++i) {
      policies.push_back(make_policy(i));
      const GridCell& c = cells[i];
      tasks.push_back({c.hp, c.be, policies.back().get(), c.cores_used});
    }
    const auto results = run_consolidation_batch(tasks, base);
    for (std::size_t i = begin; i < end; ++i) {
      done(i, results[i - begin], *policies[i - begin]);
    }
    const std::size_t n = end - begin;
    const std::size_t d = finished.fetch_add(n, std::memory_order_relaxed) + n;
    if (d / 200 != (d - n) / 200 || d == cells.size()) {
      DICER_INFO << label << ": " << d << "/" << cells.size() << " (" << jobs
                 << " jobs)";
    }
  };
  if (jobs <= 1 || n_chunks <= 1) {
    for (std::size_t c = 0; c < n_chunks; ++c) eval_chunk(c);
  } else {
    util::ThreadPool pool(
        static_cast<unsigned>(std::min<std::size_t>(jobs, n_chunks)));
    util::parallel_for(pool, n_chunks, eval_chunk);
  }
}

}  // namespace dicer::harness

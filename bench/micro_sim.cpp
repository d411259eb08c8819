// Micro benchmarks (google-benchmark): throughput of the substrate pieces.
// These guard the "a 59x59 study finishes in about a minute" property the
// figure benches depend on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "fleet/cluster.hpp"
#include "harness/sweep.hpp"
#include "policy/dicer.hpp"
#include "policy/host.hpp"
#include "sim/cache/address_stream.hpp"
#include "sim/cache/mrc_profiler.hpp"
#include "sim/core/catalog.hpp"
#include "sim/machine.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_counter_sink.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

using namespace dicer;

void BM_MachineStep10Apps(benchmark::State& state) {
  sim::Machine machine{sim::MachineConfig{}};
  const auto& catalog = sim::default_catalog();
  for (unsigned c = 0; c < 10; ++c) {
    machine.attach(c, &catalog.at(c * 5));
  }
  for (auto _ : state) {
    machine.step();
    benchmark::DoNotOptimize(machine.telemetry(0).instructions);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MachineStep10Apps);

void BM_MachineStepPartitioned(benchmark::State& state) {
  sim::Machine machine{sim::MachineConfig{}};
  const auto& catalog = sim::default_catalog();
  for (unsigned c = 0; c < 10; ++c) {
    machine.attach(c, &catalog.at(c * 5 + 1));
  }
  machine.set_fill_mask(0, sim::WayMask::high(19, 20));
  for (unsigned c = 1; c < 10; ++c) {
    machine.set_fill_mask(c, sim::WayMask::low(1));
  }
  for (auto _ : state) {
    machine.step();
    benchmark::DoNotOptimize(machine.telemetry(0).instructions);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MachineStepPartitioned);

// The cost of one quantum solve. A converged solve arms replay, so the two
// benches above mostly replay; here an MBA throttle flips before every
// step, which disarms the replay cache, so every quantum solves from the
// previous quantum's warm start (the shape a DICER actuation leaves).
void BM_MachineSolveAfterActuation(benchmark::State& state) {
  sim::Machine machine{sim::MachineConfig{}};
  const auto& catalog = sim::default_catalog();
  for (unsigned c = 0; c < 10; ++c) {
    machine.attach(c, &catalog.at(c * 5));
  }
  unsigned flip = 0;
  for (auto _ : state) {
    machine.set_mem_throttle(1, (flip++ & 1) != 0 ? 0.9 : 1.0);
    machine.step();
    benchmark::DoNotOptimize(machine.telemetry(0).instructions);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  const auto& stats = machine.solver_stats();
  state.counters["rounds_per_solve"] =
      static_cast<double>(stats.total_rounds()) /
      static_cast<double>(std::max<std::uint64_t>(stats.solves, 1));
  state.counters["solve_pct"] =
      100.0 * static_cast<double>(stats.solves) /
      static_cast<double>(std::max<std::uint64_t>(stats.quanta, 1));
}
BENCHMARK(BM_MachineSolveAfterActuation);

// The same solve on the churn fleet's machine shape: an HP and one BE,
// with a throttle flip before every step. The Newton step's low-rank terms
// (one per shared filling region, plus the hit and link latencies) then
// outnumber the cores, the case a structured solve must not lose on.
void BM_MachineSolveSmallMachine(benchmark::State& state) {
  sim::Machine machine{sim::MachineConfig{}};
  const auto& catalog = sim::default_catalog();
  machine.attach(0, &catalog.at(0));
  machine.attach(1, &catalog.at(5));
  unsigned flip = 0;
  for (auto _ : state) {
    machine.set_mem_throttle(1, (flip++ & 1) != 0 ? 0.9 : 1.0);
    machine.step();
    benchmark::DoNotOptimize(machine.telemetry(0).instructions);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  const auto& stats = machine.solver_stats();
  state.counters["rounds_per_solve"] =
      static_cast<double>(stats.total_rounds()) /
      static_cast<double>(std::max<std::uint64_t>(stats.solves, 1));
}
BENCHMARK(BM_MachineSolveSmallMachine);

// Ten single-phase apps: after the fixed point settles once, every
// quantum's solver inputs are unchanged, so the steady-state replay path
// carries the whole benchmark. This is the regime the policy sweep spends
// most of its time in (solo runs and settled consolidation stretches);
// BM_MachineSolveAfterActuation bounds the other end, where every quantum
// solves.
void BM_MachineStepSteadyState(benchmark::State& state) {
  const auto& catalog = sim::default_catalog();
  static std::vector<sim::AppProfile> profiles = [&] {
    std::vector<sim::AppProfile> ps;
    for (unsigned c = 0; c < 10; ++c) {
      sim::AppProfile p = catalog.at(c * 5);
      p.phases.resize(1);
      ps.push_back(std::move(p));
    }
    return ps;
  }();
  sim::Machine machine{sim::MachineConfig{}};
  for (unsigned c = 0; c < 10; ++c) {
    machine.attach(c, &profiles[c]);
  }
  for (auto _ : state) {
    machine.step();
    benchmark::DoNotOptimize(machine.telemetry(0).instructions);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  const auto& stats = machine.solver_stats();
  state.counters["replay_pct"] =
      100.0 * static_cast<double>(stats.replays) /
      static_cast<double>(std::max<std::uint64_t>(stats.quanta, 1));
}
BENCHMARK(BM_MachineStepSteadyState);

// Fixture for the interval-stepping pair: single-phase apps keep every
// machine in steady-state replay, the regime bulk replay commits target.
std::vector<sim::AppProfile>& steady_profiles() {
  static std::vector<sim::AppProfile> profiles = [] {
    const auto& catalog = sim::default_catalog();
    std::vector<sim::AppProfile> ps;
    for (unsigned c = 0; c < 10; ++c) {
      sim::AppProfile p = catalog.at(c * 5);
      p.phases.resize(1);
      ps.push_back(std::move(p));
    }
    return ps;
  }();
  return profiles;
}

constexpr unsigned kIntervalBenchMachines = 8;
// One policy control interval — the granularity both real consumers (the
// consolidation grid, the fleet data plane) advance machines at.
constexpr unsigned kIntervalBenchQuanta = 10;

std::vector<std::unique_ptr<sim::Machine>> steady_machines() {
  auto& profiles = steady_profiles();
  std::vector<std::unique_ptr<sim::Machine>> machines;
  for (unsigned m = 0; m < kIntervalBenchMachines; ++m) {
    machines.push_back(std::make_unique<sim::Machine>(sim::MachineConfig{}));
    for (unsigned c = 0; c < 10; ++c) machines[m]->attach(c, &profiles[c]);
  }
  return machines;
}

// Reference for BM_MachineRunInterval: the same 8 machines x 10
// steady-state apps advanced one control interval per machine per
// iteration, one step() per quantum. Items are machine-quanta, so
// time-per-item compares directly; bench_compare.py pins the interval
// run >= 2x faster than this.
void BM_MachineStepEachQuantum(benchmark::State& state) {
  auto machines = steady_machines();
  for (auto _ : state) {
    for (auto& m : machines) {
      for (unsigned q = 0; q < kIntervalBenchQuanta; ++q) m->step();
    }
    benchmark::DoNotOptimize(machines[0]->telemetry(0).instructions);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kIntervalBenchMachines * kIntervalBenchQuanta);
}
BENCHMARK(BM_MachineStepEachQuantum);

// The same 8 machines x 10 quanta through Machine::run_until, one interval
// ahead — the call shape the grid and the fleet use, where settled quanta
// are committed in bulk. replay_pct should sit near 100: a low value means
// the machines keep re-solving and the pair is not measuring the bulk path.
void BM_MachineRunInterval(benchmark::State& state) {
  auto machines = steady_machines();
  for (auto _ : state) {
    for (auto& m : machines) m->run_until(m->quantum() + kIntervalBenchQuanta);
    benchmark::DoNotOptimize(machines[0]->telemetry(0).instructions);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kIntervalBenchMachines * kIntervalBenchQuanta);
  const auto& stats = machines[0]->solver_stats();
  state.counters["replay_pct"] =
      100.0 * static_cast<double>(stats.replays) /
      static_cast<double>(std::max<std::uint64_t>(stats.quanta, 1));
}
BENCHMARK(BM_MachineRunInterval);

// A long consolidation-shaped run: 100 quanta (one 1 s control period)
// per iteration, crossing app phase boundaries and completions — the
// sustained-throughput number behind every figure bench, as opposed to
// the single-quantum steady-state probes above.
void BM_MachineRunPeriod(benchmark::State& state) {
  sim::Machine machine{sim::MachineConfig{}};
  const auto& catalog = sim::default_catalog();
  machine.attach(0, &catalog.by_name("omnetpp1"));
  for (unsigned c = 1; c < 10; ++c) {
    machine.attach(c, &catalog.by_name("gcc_base3"));
  }
  for (auto _ : state) {
    machine.run_until(machine.quantum() + 100);
    benchmark::DoNotOptimize(machine.telemetry(0).instructions);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100);
  state.counters["quanta_per_iter"] = 100;
}
BENCHMARK(BM_MachineRunPeriod)->Unit(benchmark::kMicrosecond);

// MRC profiling cost of the production path: the single-pass profiler
// with SHARDS set-sampling on the 20-way validation geometry (<= 0.02 abs
// error against the exact per-way replay, which the validation suite
// times as its speed canary).
void BM_ProfileMrcSampled(benchmark::State& state) {
  sim::MrcProfilerConfig cfg;
  cfg.geometry = {
      .size_bytes = 5ull * 1024 * 1024 / 2, .ways = 20, .line_bytes = 64};
  cfg.warmup_accesses = 30'000;
  cfg.measure_accesses = 60'000;
  cfg.sample_rate = 0.125;
  for (auto _ : state) {
    sim::WorkingSetStream stream(1 << 20, 0, util::Xoshiro256(42));
    const auto mrc = sim::profile_mrc(cfg, stream);
    benchmark::DoNotOptimize(mrc.points().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ProfileMrcSampled)->Unit(benchmark::kMillisecond);

// Controller overhead: one full DICER monitoring decision (measure + state
// machine) on a live consolidation. The paper's controller runs once per
// second on a real server; here one act() costs microseconds.
void BM_DicerAct(benchmark::State& state) {
  const auto& catalog = sim::default_catalog();
  policy::Host host(policy::HostConfig{}, catalog.by_name("milc1"),
                    &catalog.by_name("gcc_base3"));
  policy::Dicer dicer;
  dicer.setup(host.context());
  host.machine().run_until(100);
  for (auto _ : state) {
    dicer.act(host.context());
    benchmark::DoNotOptimize(dicer.hp_ways());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DicerAct);

// A reduced slice of the Fig 5-8 policy sweep (workloads x cores x {UM,
// CT, DICER}) on one worker, so the number tracks the consolidation
// engine, not thread scaling.
std::vector<harness::BaselineEntry> sweep_bench_sample() {
  const auto& catalog = sim::default_catalog();
  std::vector<harness::BaselineEntry> sample;
  for (std::size_t i = 0; i + 1 < catalog.size() && sample.size() < 6;
       i += 9) {
    harness::BaselineEntry e;
    e.spec = {catalog.at(i).name, catalog.at(i + 1).name};
    e.hp_alone_ipc = 3.0;
    e.be_alone_ipc = 3.0;
    e.um_hp_ipc = 2.7;
    e.ct_hp_ipc = 2.85;
    sample.push_back(e);
  }
  return sample;
}

void BM_SweepBatched(benchmark::State& state) {
  const auto& catalog = sim::default_catalog();
  const auto sample = sweep_bench_sample();
  harness::SweepConfig sc;
  sc.cores = {3, 6, 10};
  sc.jobs = 1;
  const auto cells = sample.size() * sc.cores.size() * sc.policies.size();
  for (auto _ : state) {
    auto rows = harness::policy_sweep(catalog, sample, sc, /*cache_path=*/"");
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(cells));
  state.counters["cells"] = static_cast<double>(cells);
}
BENCHMARK(BM_SweepBatched)->UseRealTime()->Unit(benchmark::kMillisecond);

// Fleet epochs over 64 DICER machines under churn: the control plane
// (departures/migrations/placement), the sharded data-plane step and the
// ordered reduction together. Each iteration boots a fresh cluster, steps
// it through kFleetBenchWarmup epochs and times the next kFleetBenchTimed
// (set-up and warm-up untimed), so every run of either bench below times
// the same stretch of the fleet's fill-up. With `metrics`, a registry is
// bound into the cluster and a TraceCounterSink counts every emitted
// event: bench_compare.py pins BM_FleetEpochWithMetrics / BM_FleetEpoch
// <= 1.02, the 2% overhead budget of the observability stack.
constexpr int kFleetBenchWarmup = 10;
constexpr int kFleetBenchTimed = 30;

void fleet_epochs(benchmark::State& state, bool metrics) {
  fleet::FleetConfig fc;
  fc.num_machines = 64;
  fc.cores_used = 6;
  fc.churn.arrival_rate_per_sec = 20.0;
  fc.churn.mean_lifetime_sec = 6.0;
  fc.jobs = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    {
      trace::Tracer tracer;
      telemetry::Registry registry;
      if (metrics) {
        tracer.add_sink(
            std::make_shared<telemetry::TraceCounterSink>(registry));
        fc.tracer = &tracer;
        fc.metrics = &registry;
      }
      fleet::Cluster cluster(fc, sim::default_catalog());
      for (int e = 0; e < kFleetBenchWarmup; ++e) cluster.step_epoch();
      state.ResumeTiming();
      for (int e = 0; e < kFleetBenchTimed; ++e) {
        benchmark::DoNotOptimize(cluster.step_epoch().fleet_efu);
      }
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kFleetBenchTimed *
                          static_cast<int64_t>(fc.num_machines));
  state.counters["machines"] = static_cast<double>(fc.num_machines);
  state.counters["jobs"] = static_cast<double>(fc.jobs);
}

void fleet_epoch_args(benchmark::internal::Benchmark* b) {
  b->Arg(1);
  const unsigned hw = dicer::util::ThreadPool::hardware_workers();
  if (hw > 1) b->Arg(static_cast<int>(hw));
}

void BM_FleetEpoch(benchmark::State& state) { fleet_epochs(state, false); }
BENCHMARK(BM_FleetEpoch)
    ->Apply(fleet_epoch_args)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FleetEpochWithMetrics(benchmark::State& state) {
  fleet_epochs(state, true);
}
BENCHMARK(BM_FleetEpochWithMetrics)
    ->Apply(fleet_epoch_args)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The raw telemetry hot path: one histogram record plus one counter inc
// per iteration — what a machine shard pays per observation. Nanoseconds
// here keep the <2% BM_FleetEpochWithMetrics overhead budget honest.
void BM_MetricsRecord(benchmark::State& state) {
  telemetry::Registry registry;
  auto& hist = registry.histogram("bench_ratio");
  auto& ctr = registry.counter("bench_events_total");
  double v = 0.0;
  for (auto _ : state) {
    v += 0.001953125;  // exact in binary: walk the bucket range
    if (v > 2.0) v = 0.0;
    hist.record(v);
    ctr.inc();
    benchmark::DoNotOptimize(&hist);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsRecord);

// One MRC best-fit placement decision over a 2000-machine fleet under
// steady churn: each iteration detaches one tenant (dirtying its
// machine's score caches), then places and admits a fresh arrival off the
// PlacementIndex — the steady-state epoch pattern.
void BM_FleetPlacementIndexed(benchmark::State& state) {
  const auto& catalog = sim::default_catalog();
  const sim::MachineConfig mc;
  const fleet::AppDirectory dir(catalog, mc);
  constexpr unsigned kMachines = 2000;
  constexpr unsigned kBeSlots = 5;
  fleet::PlacementIndex index(dir, kBeSlots);
  util::Xoshiro256 rng(99);
  // ~60% BE-slot occupancy: busy enough that MRC scoring has real tenant
  // lists, open enough that every decision has thousands of candidates.
  const auto tenant = [&] {
    return fleet::Tenant{0, &dir.signal(catalog.at(rng.below(catalog.size())).name)};
  };
  for (unsigned m = 0; m < kMachines; ++m) {
    index.add_machine(&catalog.at(rng.below(catalog.size())));
    for (unsigned c = 1; c <= kBeSlots; ++c) {
      if (rng.below(100) < 60) index.admit(m, tenant());
    }
  }
  fleet::MrcBestFitPlacement engine(dir);
  for (auto _ : state) {
    for (;;) {
      const auto m = static_cast<unsigned>(rng.below(kMachines));
      const unsigned c = 1 + static_cast<unsigned>(rng.below(kBeSlots));
      if (index.tenants(m)[c].sig) {
        index.detach(m, c);
        break;
      }
    }
    const fleet::Tenant arrival = tenant();
    const auto dest = engine.place(*arrival.sig->profile, index, std::nullopt);
    benchmark::DoNotOptimize(dest);
    if (dest) index.admit(*dest, arrival);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["machines"] = static_cast<double>(kMachines);
}
BENCHMARK(BM_FleetPlacementIndexed)->Unit(benchmark::kMillisecond);

// The saturated-fleet placement pattern: an 800-machine fleet with every
// BE slot full but for a standing pool of 200 vacated ones (the departures
// an epoch of fleet_saturated accumulates), so most open machines are
// singleton placement classes. Each iteration detaches a random tenant,
// opening or growing one, then places and admits an arrival, closing
// another: a scan over ~200 live classes plus the fresh classes' scores.
void BM_FleetPlacementSaturated(benchmark::State& state) {
  const auto& catalog = sim::default_catalog();
  const sim::MachineConfig mc;
  const fleet::AppDirectory dir(catalog, mc);
  constexpr unsigned kMachines = 800;
  constexpr unsigned kBeSlots = 9;
  fleet::PlacementIndex index(dir, kBeSlots);
  util::Xoshiro256 rng(23);
  const auto tenant = [&] {
    return fleet::Tenant{0, &dir.signal(catalog.at(rng.below(catalog.size())).name)};
  };
  for (unsigned m = 0; m < kMachines; ++m) {
    index.add_machine(&catalog.at(rng.below(catalog.size())));
    for (unsigned c = 1; c <= kBeSlots; ++c) index.admit(m, tenant());
  }
  const auto detach_random = [&] {
    for (;;) {
      const auto m = static_cast<unsigned>(rng.below(kMachines));
      const unsigned c = 1 + static_cast<unsigned>(rng.below(kBeSlots));
      if (index.tenants(m)[c].sig) {
        index.detach(m, c);
        return;
      }
    }
  };
  for (int i = 0; i < 200; ++i) detach_random();
  fleet::MrcBestFitPlacement engine(dir);
  for (auto _ : state) {
    detach_random();
    const fleet::Tenant arrival = tenant();
    const auto dest = engine.place(*arrival.sig->profile, index, std::nullopt);
    benchmark::DoNotOptimize(dest);
    if (dest) index.admit(*dest, arrival);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["machines"] = static_cast<double>(kMachines);
}
BENCHMARK(BM_FleetPlacementSaturated)->Unit(benchmark::kMicrosecond);

// A churn-heavy epoch at fleet scale: 10k machines, ~400 arrivals/sec into
// mrc placement. The cluster is built once and stepped across benchmark
// batches (tenant population reaches steady state after the first epochs),
// so each iteration is one production-shaped epoch: control plane +
// sharded data plane + ordered reduction.
void BM_FleetEpochChurn(benchmark::State& state) {
  static fleet::Cluster* cluster = [] {
    fleet::FleetConfig fc;
    fc.num_machines = 10000;
    fc.cores_used = 6;
    fc.churn.arrival_rate_per_sec = 400.0;
    fc.churn.mean_lifetime_sec = 8.0;
    fc.placement = "mrc";
    return new fleet::Cluster(fc, sim::default_catalog());
  }();
  for (auto _ : state) {
    const auto m = cluster->step_epoch();
    benchmark::DoNotOptimize(m.fleet_efu);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  state.counters["machines"] = 10000.0;
  state.counters["tenants"] =
      static_cast<double>(cluster->tenants_running());
}
BENCHMARK(BM_FleetEpochChurn)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

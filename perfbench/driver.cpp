// In-process half of the repository benchmark (run.py is the other half).
// It drives the simulator through its public API and times each call from
// outside: no code under src/ knows it is being measured.
//
//   perfbench_driver spawn STATS PROG [ARGS...]
//       Run PROG, wait for it, and write its exit code, wall and CPU seconds
//       and peak RSS to the JSON file STATS. A child's ru_maxrss includes
//       the memory of the process that spawned it (the kernel carries that
//       high-water mark across exec), so run.py starts every timed program
//       through this small process instead of directly.
//   perfbench_driver startup --reps K
//       Build the default catalog K times (the cold reproduction's set-up
//       before its first study call) and print each build's seconds.
//   perfbench_driver fleet --out DIR --machines N --arrival-rate R
//       --mean-lifetime L --catalog default|trace [--jobs J] --seed S
//       --setups K --warmup W --epochs T [--traced]
//       Set the fleet up K times (catalog + Cluster), keep the last one and
//       step it W + T epochs (none: a set-up-only run) with the metrics
//       registry and trace-counter sink attached as fleet_sim attaches them.
//       J sets FleetConfig::jobs (0, the default: one per hardware thread).
//   perfbench_driver harness --out DIR [--traced]
//       The cold reproduction's harness calls, in the order the artefacts
//       make them: baseline study, cache round trip, representative sample,
//       policy sweep, cached sweep.
//
// fleet and harness print one JSON object on stdout and write the run's
// simulated outputs to DIR/outputs.txt. With --traced, a run-local
// trace::Tracer collects the program's own kTimer spans (fleet phases,
// consolidations) next to the driver's spans, and both go to
// DIR/spans.json when the run ends.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet/cluster.hpp"
#include "harness/solo.hpp"
#include "harness/sweep.hpp"
#include "harness/workloads.hpp"
#include "sim/core/catalog.hpp"
#include "sim/core/trace_apps.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_counter_sink.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

extern char** environ;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dicer;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds(const rusage& ru) {
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return cpu_seconds(ru);
}

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

struct Span {
  std::string name;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  int parent = -1;          ///< index of the enclosing driver span
  std::uint64_t tid = 0;
  bool program = false;     ///< a kTimer span emitted by the program
};

/// The driver's own spans, opened and closed on the main thread, nested by
/// scope.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log) {
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back({std::move(name), now_ns(), 0,
                             log_.open_.empty() ? -1 : log_.open_.back(),
                             thread_tag(), false});
      log_.open_.push_back(index_);
    }
    ~Scope() {
      log_.spans_[static_cast<std::size_t>(index_)].t1 = now_ns();
      log_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    double seconds() const {
      const auto& s = log_.spans_[static_cast<std::size_t>(index_)];
      return static_cast<double>((s.t1 ? s.t1 : now_ns()) - s.t0) * 1e-9;
    }

   private:
    SpanLog& log_;
    int index_ = 0;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Collects the program's kTimer events as spans. A kTimer event is emitted
/// when its scope closes and carries only the duration, so the end is
/// stamped on arrival. write() runs under the tracer's mutex.
class TimerSpanSink final : public trace::Sink {
 public:
  void write(const trace::Event& event) override {
    if (event.kind != trace::Kind::kTimer) return;
    const std::int64_t end = now_ns();
    const double ms = trace::field_double(event, "ms");
    spans_.push_back({trace::field_string(event, "label"),
                      end - static_cast<std::int64_t>(ms * 1e6), end, -1,
                      thread_tag(), true});
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
std::string json_array(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += json_number(static_cast<double>(values[i]));
  }
  return out + "]";
}

void write_spans(const std::string& path, const std::vector<Span>& driver,
                 const std::vector<Span>& program) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "[";
  bool first = true;
  for (const auto* list : {&driver, &program}) {
    for (const auto& s : *list) {
      out << (first ? "\n" : ",\n") << "{\"name\":" << json_string(s.name)
          << ",\"t0\":" << s.t0 << ",\"t1\":" << s.t1
          << ",\"parent\":" << s.parent << ",\"tid\":" << s.tid
          << ",\"program\":" << (s.program ? "true" : "false") << "}";
      first = false;
    }
  }
  out << "\n]\n";
}

/// Every counter in `registry`, as a JSON object.
std::string json_counters(const telemetry::Registry& registry) {
  std::string out = "{";
  bool first = true;
  for (const auto& e : registry.entries()) {
    if (!e.counter) continue;
    out += (first ? "" : ",") + json_string(e.name) + ":" +
           std::to_string(e.counter->value());
    first = false;
  }
  return out + "}";
}

/// The process-wide solver counters harness::record_solver_counters keeps.
std::string json_solver_counters() {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : trace::TimerRegistry::global().counters()) {
    out += (first ? "" : ",") + json_string(name) + ":" +
           std::to_string(value);
    first = false;
  }
  return out + "}";
}

std::string build_info() {
  return "\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + json_string(__VERSION__);
}

/// Events the policies narrate actuations with (trace-counter kinds).
constexpr trace::KindMask kActuationKinds =
    trace::mask_of(trace::Kind::kAllocation) |
    trace::mask_of(trace::Kind::kSamplingStart) |
    trace::mask_of(trace::Kind::kDonation) |
    trace::mask_of(trace::Kind::kPhaseReset) |
    trace::mask_of(trace::Kind::kPerfReset);

int run_fleet(const util::CliArgs& args) {
  const std::filesystem::path out_dir = args.get_or("out", ".");
  const bool traced = args.get_bool("traced", false);
  const std::string catalog_name = args.get_or("catalog", "default");
  if (catalog_name != "default" && catalog_name != "trace") {
    throw util::CliError("invalid value for --catalog: '" + catalog_name +
                         "' (expected default or trace)");
  }
  const long setups = std::max(1L, args.get_int("setups", 1));
  const long warmup = std::max(0L, args.get_int("warmup", 1));
  const long epochs = std::max(0L, args.get_int("epochs", 10));

  fleet::FleetConfig fc;
  fc.num_machines = static_cast<unsigned>(args.get_int("machines", 500));
  fc.churn.arrival_rate_per_sec = args.get_double("arrival-rate", 40.0);
  fc.churn.mean_lifetime_sec = args.get_double("mean-lifetime", 8.0);
  fc.jobs = static_cast<unsigned>(std::max(0L, args.get_int("jobs", 0)));
  fc.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  fc.churn.seed = fc.seed + 1;  // as fleet_sim derives it

  SpanLog log;
  auto program_spans = std::make_shared<TimerSpanSink>();
  trace::Tracer local;
  if (traced) {
    local.set_kinds(trace::kDefaultKinds | trace::mask_of(trace::Kind::kTimer));
    local.add_sink(program_spans);
    fc.tracer = &local;
  }
  trace::Tracer& tracer = traced ? local : trace::Tracer::global();

  std::vector<double> catalog_s, boot_s;
  std::unique_ptr<sim::AppCatalog> catalog;
  std::unique_ptr<telemetry::Registry> registry;
  std::shared_ptr<telemetry::TraceCounterSink> counter_sink;
  std::unique_ptr<fleet::Cluster> cluster;
  for (long k = 0; k < setups; ++k) {
    // Tear the previous set-up down first, so peak memory is one fleet's.
    cluster.reset();
    if (counter_sink) tracer.remove_sink(counter_sink);
    counter_sink.reset();
    registry.reset();
    catalog.reset();
    SpanLog::Scope setup(log, "setup");
    {
      SpanLog::Scope s(log, catalog_name == "trace" ? "trace_augmented_catalog"
                                                    : "AppCatalog");
      catalog = std::make_unique<sim::AppCatalog>(
          catalog_name == "trace" ? sim::trace_augmented_catalog()
                                  : sim::AppCatalog());
      catalog_s.push_back(s.seconds());
    }
    registry = std::make_unique<telemetry::Registry>();
    counter_sink = std::make_shared<telemetry::TraceCounterSink>(*registry);
    tracer.add_sink(counter_sink);
    fc.metrics = registry.get();
    {
      SpanLog::Scope s(log, "Cluster");
      cluster = std::make_unique<fleet::Cluster>(fc, *catalog);
      boot_s.push_back(s.seconds());
    }
  }

  std::vector<fleet::EpochMetrics> rows;
  std::vector<double> epoch_ms;
  const double cpu0 = cpu_seconds();
  const std::int64_t wall0 = now_ns();
  for (long e = 0; e < warmup + epochs; ++e) {
    SpanLog::Scope s(log, "step_epoch");
    rows.push_back(cluster->step_epoch());
    epoch_ms.push_back(s.seconds() * 1e3);
  }
  const double wall_s = static_cast<double>(now_ns() - wall0) * 1e-9;
  const double cpu_s = cpu_seconds() - cpu0;

  std::string prom;
  double export_ms = 0.0;
  {
    SpanLog::Scope s(log, "to_prometheus");
    prom = telemetry::to_prometheus(*registry);
    export_ms = s.seconds() * 1e3;
  }
  tracer.remove_sink(counter_sink);
  if (traced) local.remove_sink(program_spans);

  std::ofstream out(out_dir / "outputs.txt");
  out << fleet::epoch_csv_header() << '\n';
  for (const auto& r : rows) out << fleet::epoch_csv_row(r) << '\n';
  out << "# placement log\n";
  for (const auto& p : cluster->placement_log()) {
    out << p.tenant_id << ',' << p.epoch << ',' << p.app << ','
        << p.accepted << ',' << p.migration << ',' << p.machine << ','
        << p.core << '\n';
  }
  out << "# prometheus\n" << prom;
  out.close();
  if (!out) throw std::runtime_error("cannot write outputs.txt");
  if (traced) {
    write_spans((out_dir / "spans.json").string(), log.spans(),
                program_spans->spans());
  }

  const auto* index = cluster->placement_index();
  std::cout << "{\"catalog_s\":" << json_array(catalog_s)
            << ",\"boot_s\":" << json_array(boot_s)
            << ",\"epoch_ms\":" << json_array(epoch_ms)
            << ",\"wall_s\":" << json_number(wall_s)
            << ",\"cpu_s\":" << json_number(cpu_s)
            << ",\"export_ms\":" << json_number(export_ms)
            << ",\"decisions\":" << cluster->placement_log().size()
            << ",\"index_mutations\":" << (index ? index->mutations() : 0)
            << ",\"workers\":"
            << util::ThreadPool::resolve_jobs(fc.jobs, "DICER_FLEET_JOBS")
            << ",\"counters\":" << json_counters(*registry) << ","
            << build_info() << "}\n";
  return 0;
}

int run_harness(const util::CliArgs& args) {
  const std::filesystem::path dir = args.get_or("out", ".");
  const bool traced = args.get_bool("traced", false);
  const std::string study_path = (dir / "cache_baseline_study.csv").string();
  const std::string sweep_path = (dir / "cache_policy_sweep.csv").string();

  SpanLog log;
  telemetry::Registry registry;
  auto counter_sink = std::make_shared<telemetry::TraceCounterSink>(registry);
  auto program_spans = std::make_shared<TimerSpanSink>();
  trace::Tracer tracer;
  harness::ConsolidationConfig config;  // what fig1..fig8 pass
  config.cores_used = 10;
  if (traced) {
    tracer.set_kinds(trace::mask_of(trace::Kind::kTimer) | kActuationKinds);
    tracer.add_sink(counter_sink);
    tracer.add_sink(program_spans);
    config.tracer = &tracer;
  }

  double solo_s = 0.0, study_s = 0.0, save_ms = 0.0, load_ms = 0.0;
  double sweep_s = 0.0, export_ms = 0.0;
  double busy_cpu = 0.0;  // CPU seconds inside the study and the sweep
  std::size_t sweep_cells = 0;
  {
    SpanLog::Scope root(log, "harness_pass");
    const sim::AppCatalog* catalog = nullptr;
    {
      SpanLog::Scope s(log, "default_catalog");
      catalog = &sim::default_catalog();
    }
    for (const auto& p : catalog->profiles()) {
      SpanLog::Scope s(log, "solo_steady_state");
      harness::solo_steady_state(p, config.machine.llc.ways, config.machine);
      solo_s += s.seconds();
    }
    {
      const double cpu0 = cpu_seconds();
      SpanLog::Scope s(log, "baseline_study");
      harness::baseline_study(*catalog, config, study_path);
      study_s = s.seconds();
      busy_cpu += cpu_seconds() - cpu0;
    }
    // Later artefacts read the study back from the cache, and draw the
    // representative sample from the values as read, so this pass does too.
    std::optional<harness::BaselineStudy> loaded;
    {
      SpanLog::Scope s(log, "load_baseline_cache");
      loaded = harness::load_baseline_cache(study_path, *catalog, config);
      load_ms += s.seconds() * 1e3;
    }
    if (!loaded) throw std::runtime_error("baseline cache did not load back");
    {
      SpanLog::Scope s(log, "save_baseline_cache");
      harness::save_baseline_cache((dir / "roundtrip_baseline.csv").string(),
                                   *loaded, *catalog);
      save_ms += s.seconds() * 1e3;
    }
    const auto sample = harness::representative_sample(*loaded, 50, 70);
    harness::SweepConfig sc;  // what fig5..fig8 pass
    sc.base = config;
    {
      const double cpu0 = cpu_seconds();
      SpanLog::Scope s(log, "policy_sweep");
      sweep_cells =
          harness::policy_sweep(*catalog, sample, sc, sweep_path).size();
      sweep_s = s.seconds();
      busy_cpu += cpu_seconds() - cpu0;
    }
    {
      SpanLog::Scope s(log, "policy_sweep_cached");
      const auto rows = harness::policy_sweep(*catalog, sample, sc, sweep_path);
      if (rows.size() != sweep_cells) {
        throw std::runtime_error("sweep cache did not load back");
      }
      load_ms += s.seconds() * 1e3;
    }
    {
      SpanLog::Scope s(log, "to_prometheus");
      if (telemetry::to_prometheus(registry).empty()) {
        throw std::runtime_error("empty Prometheus export");
      }
      export_ms = s.seconds() * 1e3;
    }
  }
  if (traced) {
    tracer.clear_sinks();
    write_spans((dir / "spans.json").string(), log.spans(),
                program_spans->spans());
  }

  std::cout << "{\"solo_s\":" << json_number(solo_s)
            << ",\"baseline_study_s\":" << json_number(study_s)
            << ",\"sweep_s\":" << json_number(sweep_s)
            << ",\"sweep_cells\":" << sweep_cells
            << ",\"cache_save_ms\":" << json_number(save_ms)
            << ",\"cache_load_ms\":" << json_number(load_ms)
            << ",\"parallelism\":"
            << json_number(busy_cpu / (study_s + sweep_s))
            << ",\"export_ms\":" << json_number(export_ms)
            << ",\"workers\":" << harness::resolve_sweep_jobs(0)
            << ",\"counters\":" << json_counters(registry)
            << ",\"solver\":" << json_solver_counters() << ","
            << build_info() << "}\n";
  return 0;
}

int run_spawn(int argc, char** argv) {
  if (argc < 4) {
    throw util::CliError("usage: perfbench_driver spawn STATS PROG [ARGS...]");
  }
  const std::int64_t t0 = now_ns();
  pid_t pid = 0;
  if (const int err =
          posix_spawn(&pid, argv[3], nullptr, nullptr, argv + 3, environ)) {
    throw std::runtime_error(std::string("cannot run ") + argv[3] + ": " +
                             std::strerror(err));
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) {
    throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
  }
  const double wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::ofstream out(argv[2]);
  out << "{\"code\":" << code << ",\"wall_s\":" << json_number(wall_s)
      << ",\"cpu_s\":" << json_number(cpu_seconds(ru))
      << ",\"rss_mb\":"
      << json_number(static_cast<double>(ru.ru_maxrss) / 1024.0) << "}\n";
  out.close();
  if (!out) throw std::runtime_error(std::string("cannot write ") + argv[2]);
  return 0;
}

int run(int argc, char** argv) {
  // spawn passes its arguments through untouched, flags included.
  if (argc > 1 && std::string(argv[1]) == "spawn") return run_spawn(argc, argv);
  const util::CliArgs args(argc, argv);
  const auto& pos = args.positional();
  const std::string mode = pos.empty() ? "" : pos.front();
  if (mode == "startup") {
    std::vector<double> catalog_s;
    for (long k = 0; k < std::max(1L, args.get_int("reps", 1)); ++k) {
      const std::int64_t t0 = now_ns();
      const sim::AppCatalog catalog;  // what default_catalog() builds
      catalog_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    std::cout << "{\"catalog_s\":" << json_array(catalog_s)
              << ",\"workers\":" << harness::resolve_sweep_jobs(0) << ","
              << build_info() << "}\n";
    return 0;
  }
  if (mode == "fleet") return run_fleet(args);
  if (mode == "harness") return run_harness(args);
  throw util::CliError("usage: perfbench_driver startup|fleet|harness ...");
}

}  // namespace

int main(int argc, char** argv) {
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}

#include "fleet/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "metrics/metrics.hpp"
#include "policy/factory.hpp"
#include "rdt/capability.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace dicer::fleet {

namespace {

constexpr double kEps = 1e-9;

/// Ratio-valued distributions (EFU, normalised IPC, slowdown, link rho):
/// ~6% relative resolution from 0.02 up past 6 — tight enough that the
/// interpolated p50/p95/p99 columns track the exact sample percentiles.
constexpr telemetry::HistogramSpec kRatioSpec{0.02, 1.06, 100};
/// Tenant footprints: 64 KiB .. ~2.3 GiB.
constexpr telemetry::HistogramSpec kBytesSpec{64.0 * 1024.0, 1.25, 48};
/// Latencies denominated in simulated periods (epochs).
constexpr telemetry::HistogramSpec kPeriodsSpec{0.25, 1.5, 24};

using util::fmt17;

}  // namespace

std::string epoch_csv_header() {
  return "epoch,t_sec,tenants,occupied_machines,arrivals,departures,"
         "rejected,migrations,fleet_efu,hp_norm_mean,slo_violations,"
         "slo_violation_rate,link_rho_mean,efu_p50,efu_p95,efu_p99,"
         "hp_slowdown_p50,hp_slowdown_p95,hp_slowdown_p99,hp_slowdown_max,"
         "slo_violation_rate_occupied";
}

std::string epoch_csv_row(const EpochMetrics& m) {
  std::string row = std::to_string(m.epoch);
  row += ',' + fmt17(m.t_sec);
  row += ',' + std::to_string(m.tenants);
  row += ',' + std::to_string(m.occupied_machines);
  row += ',' + std::to_string(m.arrivals);
  row += ',' + std::to_string(m.departures);
  row += ',' + std::to_string(m.rejected);
  row += ',' + std::to_string(m.migrations);
  row += ',' + fmt17(m.fleet_efu);
  row += ',' + fmt17(m.hp_norm_mean);
  row += ',' + std::to_string(m.slo_violations);
  row += ',' + fmt17(m.slo_violation_rate);
  row += ',' + fmt17(m.link_rho_mean);
  row += ',' + fmt17(m.efu_p50);
  row += ',' + fmt17(m.efu_p95);
  row += ',' + fmt17(m.efu_p99);
  row += ',' + fmt17(m.hp_slowdown_p50);
  row += ',' + fmt17(m.hp_slowdown_p95);
  row += ',' + fmt17(m.hp_slowdown_p99);
  row += ',' + fmt17(m.hp_slowdown_max);
  row += ',' + fmt17(m.slo_violation_rate_occupied);
  return row;
}

std::string epoch_jsonl_row(const EpochMetrics& m) {
  std::string out = "{\"epoch\":" + std::to_string(m.epoch);
  out += ",\"t_sec\":" + fmt17(m.t_sec);
  out += ",\"tenants\":" + std::to_string(m.tenants);
  out += ",\"occupied_machines\":" + std::to_string(m.occupied_machines);
  out += ",\"arrivals\":" + std::to_string(m.arrivals);
  out += ",\"departures\":" + std::to_string(m.departures);
  out += ",\"rejected\":" + std::to_string(m.rejected);
  out += ",\"migrations\":" + std::to_string(m.migrations);
  out += ",\"fleet_efu\":" + fmt17(m.fleet_efu);
  out += ",\"hp_norm_mean\":" + fmt17(m.hp_norm_mean);
  out += ",\"slo_violations\":" + std::to_string(m.slo_violations);
  out += ",\"slo_violation_rate\":" + fmt17(m.slo_violation_rate);
  out += ",\"link_rho_mean\":" + fmt17(m.link_rho_mean);
  out += ",\"efu_p50\":" + fmt17(m.efu_p50);
  out += ",\"efu_p95\":" + fmt17(m.efu_p95);
  out += ",\"efu_p99\":" + fmt17(m.efu_p99);
  out += ",\"hp_slowdown_p50\":" + fmt17(m.hp_slowdown_p50);
  out += ",\"hp_slowdown_p95\":" + fmt17(m.hp_slowdown_p95);
  out += ",\"hp_slowdown_p99\":" + fmt17(m.hp_slowdown_p99);
  out += ",\"hp_slowdown_max\":" + fmt17(m.hp_slowdown_max);
  out += ",\"slo_violation_rate_occupied\":" +
         fmt17(m.slo_violation_rate_occupied);
  out += '}';
  return out;
}

Cluster::Cluster(const FleetConfig& config, const sim::AppCatalog& catalog)
    : config_(config),
      catalog_(&catalog),
      directory_(catalog, config.machine),
      churn_(config.churn, catalog),
      epoch_efu_hist_(kRatioSpec),
      epoch_slowdown_hist_(kRatioSpec) {
  if (config.num_machines == 0) {
    throw std::invalid_argument("Cluster: need at least one machine");
  }
  if (config.cores_used < 2 ||
      config.cores_used > config.machine.num_cores) {
    throw std::invalid_argument(
        "Cluster: cores_used must be in [2, machine cores]");
  }
  if (config.epoch_sec < config.machine.quantum_sec - kEps) {
    throw std::invalid_argument("Cluster: epoch shorter than one quantum");
  }
  if (!(config.slo_norm > 0.0 && config.slo_norm <= 1.0)) {
    throw std::invalid_argument("Cluster: slo_norm outside (0, 1]");
  }

  jobs_ = util::ThreadPool::resolve_jobs(config.jobs, "DICER_FLEET_JOBS");
  if (jobs_ > 1) pool_ = std::make_unique<util::ThreadPool>(jobs_);

  placement_ = make_placement(config.placement, directory_,
                              config.seed ^ 0x9e3779b9);

  // Draw every machine's HP from the catalog into its index slot, then
  // boot the machines. The draw consumes the rng in machine-index order,
  // so the fleet's HP mix is a pure function of (seed, catalog) —
  // placement engine and worker count never touch it.
  index_ = std::make_unique<PlacementIndex>(directory_, config_.cores_used - 1);
  util::Xoshiro256 rng(config.seed);
  for (unsigned i = 0; i < config.num_machines; ++i) {
    index_->add_machine(&catalog.at(rng.below(catalog.size())));
  }
  nodes_.resize(config.num_machines);
  for (unsigned i = 0; i < config.num_machines; ++i) {
    boot_node(nodes_[i], index_->hp(i).profile);
  }
  epoch_stats_.reserve(nodes_.size());
  bind_metrics();

  // ~4 contiguous step shards per worker keeps the data plane
  // load-balanced under uneven policy intervals.
  shard_machines_ = std::clamp(config_.num_machines / (jobs_ * 4), 1u, 32u);
  DICER_INFO << "fleet: booted " << nodes_.size() << " machines ("
             << config.policy << " policy, " << placement_->name()
             << " placement, " << jobs_ << " jobs, "
             << (nodes_.size() + shard_machines_ - 1) / shard_machines_
             << " step shards)";
}

Cluster::~Cluster() = default;

void Cluster::boot_node(Node& node, const sim::AppProfile* hp) {
  sim::MachineConfig mc = config_.machine;
  // Per-quantum tracing from hundreds of machines would swamp any sink;
  // fleet telemetry flows through the per-epoch events instead.
  mc.tracer = config_.tracer;
  node.machine = std::make_unique<sim::Machine>(mc);
  const auto cap = rdt::Capability::probe(*node.machine, /*enable_mba=*/false);
  node.cat = std::make_unique<rdt::CatController>(*node.machine, cap);
  node.monitor =
      std::make_unique<rdt::Monitor>(*node.machine, cap, config_.tracer);
  node.policy = policy::make_policy(config_.policy);
  node.instr_base.assign(config_.cores_used, 0.0);
  node.cycles_base.assign(config_.cores_used, 0.0);

  node.ctx.machine = node.machine.get();
  node.ctx.cat = node.cat.get();
  node.ctx.monitor = node.monitor.get();
  node.ctx.mba = nullptr;
  node.ctx.hp_core = 0;
  node.ctx.tracer = config_.tracer;
  for (unsigned c = 1; c < config_.cores_used; ++c) {
    node.ctx.be_cores.push_back(c);
  }

  node.machine->attach(0, hp);
  node.policy->setup(node.ctx);
}

void Cluster::bind_metrics() {
  telemetry::Registry* reg = config_.metrics;
  if (!reg) return;
  metrics_.efu = &reg->histogram("dicer_fleet_machine_efu", kRatioSpec,
                                 "per-machine EFU, one sample per epoch");
  metrics_.hp_norm =
      &reg->histogram("dicer_fleet_hp_norm", kRatioSpec,
                      "per-machine HP normalised IPC, one sample per epoch");
  metrics_.hp_slowdown =
      &reg->histogram("dicer_fleet_hp_slowdown", kRatioSpec,
                      "per-machine HP slowdown (IPC_alone / IPC)");
  metrics_.link_rho =
      &reg->histogram("dicer_fleet_link_rho", kRatioSpec,
                      "per-machine end-of-epoch memory link utilisation");
  metrics_.tenant_footprint = &reg->histogram(
      "dicer_fleet_tenant_footprint_bytes", kBytesSpec,
      "footprint of each running BE tenant, one sample per epoch");
  metrics_.placement_wait = &reg->histogram(
      "dicer_fleet_placement_wait_periods", kPeriodsSpec,
      "simulated periods between a tenant's arrival and its admission");
  metrics_.migration_streak = &reg->histogram(
      "dicer_fleet_migration_streak_periods", kPeriodsSpec,
      "SLO-violating periods an HP endured before a migration fired");
  metrics_.arrivals =
      &reg->counter("dicer_fleet_arrivals_total", "BE tenant arrivals");
  metrics_.departures =
      &reg->counter("dicer_fleet_departures_total", "BE tenant departures");
  metrics_.rejected = &reg->counter("dicer_fleet_rejected_total",
                                    "arrivals with no feasible machine");
  metrics_.migrations =
      &reg->counter("dicer_fleet_migrations_total", "accepted BE migrations");
  metrics_.slo_violations = &reg->counter(
      "dicer_fleet_slo_violations_total", "machine-epochs under the HP SLO");
  metrics_.epochs =
      &reg->counter("dicer_fleet_epochs_total", "completed fleet epochs");
  metrics_.tenants =
      &reg->gauge("dicer_fleet_tenants_running", "BE tenants running now");
  metrics_.occupied = &reg->gauge("dicer_fleet_occupied_machines",
                                  "machines hosting >= 1 BE tenant");
  metrics_.t_sec =
      &reg->gauge("dicer_fleet_time_seconds", "simulated time at epoch end");
  metrics_.solver_quanta = &reg->counter(
      "dicer_solver_quanta_total", "machine quanta stepped fleet-wide");
  metrics_.solver_replays = &reg->counter(
      "dicer_solver_replays_total", "quanta served by steady-state replay");
  metrics_.solver_solves = &reg->counter("dicer_solver_solves_total",
                                         "quanta that ran the fixed point");
  metrics_.solver_stable = &reg->counter(
      "dicer_solver_stable_solves_total", "solves that exited bit-stable");
  metrics_.solver_rounds = &reg->counter("dicer_solver_rounds_total",
                                         "fixed-point rounds executed");
  metrics_.solver_inv_actuator =
      &reg->counter("dicer_solver_invalidations_actuator_total",
                    "replay caches dropped by attach/detach/mask/throttle");
  metrics_.solver_inv_fingerprint =
      &reg->counter("dicer_solver_invalidations_fingerprint_total",
                    "replay caches dropped by phase / active-set drift");
}

unsigned Cluster::admit(unsigned m, const Tenant& tenant) {
  const unsigned core = index_->admit(m, tenant);
  Node& node = nodes_[m];
  node.machine->attach(core, tenant.sig->profile);
  // Machine::detach reverted this core to the full mask; re-associating
  // re-applies the BE CLOS mask the machine's policy currently runs.
  node.cat->associate(core, policy::kBeClos);
  node.monitor->track(core);
  return core;
}

Tenant Cluster::evict(unsigned m, unsigned core) {
  nodes_[m].machine->detach(core);
  return index_->detach(m, core);
}

const sim::AppProfile& Cluster::hp_of(unsigned machine) const {
  return *index_->hp(machine).profile;
}

void Cluster::do_departures(double epoch_start, EpochMetrics& m) {
  for (unsigned i = 0; i < nodes_.size(); ++i) {
    const std::vector<Tenant>& tenants = index_->tenants(i);
    for (unsigned c = 1; c < tenants.size(); ++c) {
      if (tenants[c].sig && tenants[c].depart_t_sec <= epoch_start + kEps) {
        evict(i, c);
        ++m.departures;
      }
    }
  }
}

void Cluster::do_migrations(EpochMetrics& m) {
  if (config_.migrate_after == 0) return;
  auto& tr = trace::resolve(config_.tracer);
  for (unsigned i = 0; i < nodes_.size(); ++i) {
    Node& src = nodes_[i];
    if (src.slo_streak < config_.migrate_after) continue;
    // Evict the most cache-hungry tenant — the likeliest HP antagonist.
    const std::vector<Tenant>& tenants = index_->tenants(i);
    unsigned victim_core = 0;
    double victim_footprint = -1.0;
    for (unsigned c = 1; c < tenants.size(); ++c) {
      if (!tenants[c].sig) continue;
      const double f = tenants[c].sig->footprint_bytes;
      if (f > victim_footprint) {
        victim_footprint = f;
        victim_core = c;
      }
    }
    // Streak handled either way: a machine with nothing to migrate, or no
    // destination, re-arms rather than retrying every epoch.
    const unsigned streak = src.slo_streak;
    src.slo_streak = 0;
    if (victim_core == 0) continue;

    const sim::AppProfile& app = *tenants[victim_core].sig->profile;
    const auto dest = placement_->place(app, *index_, i);

    PlacementRecord rec;
    rec.tenant_id = tenants[victim_core].id;
    rec.epoch = epoch_;
    rec.app = app.name;
    rec.migration = true;
    rec.accepted = dest.has_value();
    if (dest) {
      rec.machine = *dest;
      rec.core = admit(*dest, evict(i, victim_core));
      ++m.migrations;
      if (metrics_.migration_streak) {
        metrics_.migration_streak->record(static_cast<double>(streak));
      }
      if (tr.enabled(trace::Kind::kMigration)) {
        tr.emit(trace::Kind::kMigration,
                static_cast<double>(epoch_) * config_.epoch_sec,
                {{"tenant", rec.tenant_id},
                 {"app", app.name},
                 {"from", i},
                 {"to", *dest}});
      }
    }
    placement_log_.push_back(std::move(rec));
  }
}

void Cluster::do_arrivals(double epoch_end, EpochMetrics& m) {
  auto& tr = trace::resolve(config_.tracer);
  // Decide, then commit, one arrival at a time: each decision sees every
  // earlier admission of the epoch.
  for (const auto& a : churn_.drain_until(epoch_end)) {
    const auto dest = placement_->place(*a.app, *index_, std::nullopt);
    ++m.arrivals;

    PlacementRecord rec;
    rec.tenant_id = a.id;
    rec.epoch = epoch_;
    rec.app = a.app->name;
    rec.accepted = dest.has_value();
    if (dest) {
      rec.machine = *dest;
      rec.core = admit(*dest, {a.id, &directory_.signal(a.app->name),
                               a.t_sec + a.lifetime_sec});
      if (metrics_.placement_wait) {
        // Arrivals drain at the epoch boundary, so a tenant waits from its
        // arrival instant to the end of the epoch it lands in.
        metrics_.placement_wait->record((epoch_end - a.t_sec) /
                                        config_.epoch_sec);
      }
    } else {
      ++m.rejected;
    }
    if (tr.enabled(trace::Kind::kPlacement)) {
      tr.emit(trace::Kind::kPlacement, a.t_sec,
              {{"tenant", a.id},
               {"app", a.app->name},
               {"accepted", rec.accepted},
               {"machine", rec.accepted ? rec.machine : 0u}});
    }
    placement_log_.push_back(std::move(rec));
  }
}

void Cluster::step_all(double epoch_end) {
  epoch_stats_.resize(nodes_.size());
  // Task b advances the contiguous machine range of shard b. Each machine
  // runs the single-machine control loop, clipped to the epoch boundary:
  // run to the next policy deadline (or the boundary, whichever is first),
  // then let the policy act — a pure function of the node's own state.
  // Machines never interact mid-epoch and the reduction stays
  // index-ordered, so CSV/metrics exports are byte-identical at any `jobs`
  // (and hence any shard slicing).
  const std::size_t shards =
      (nodes_.size() + shard_machines_ - 1) / shard_machines_;
  auto step_shard = [&](std::size_t b) {
    const std::size_t end =
        std::min(nodes_.size(), (b + 1) * shard_machines_);
    for (std::size_t i = b * shard_machines_; i < end; ++i) {
      Node& node = nodes_[i];
      sim::Machine& machine = *node.machine;
      while (machine.time_sec() < epoch_end - kEps) {
        const double interval = std::max(node.policy->interval_sec(),
                                         config_.machine.quantum_sec);
        machine.run_until(std::min(machine.time_sec() + interval, epoch_end));
        node.policy->act(node.ctx);
      }
      fill_epoch_stat(i);
    }
  };
  if (!pool_ || shards <= 1) {
    for (std::size_t b = 0; b < shards; ++b) step_shard(b);
  } else {
    util::parallel_for(*pool_, shards, step_shard);
  }
}

void Cluster::fill_epoch_stat(std::size_t i) {
  Node& node = nodes_[i];
  const auto machine = static_cast<unsigned>(i);
  const AppSignal& hp = index_->hp(machine);
  const std::vector<Tenant>& tenants = index_->tenants(machine);
  MachineEpochStat st;
  st.machine = machine;
  st.hp = hp.profile;
  std::vector<metrics::IpcPair> pairs;
  pairs.reserve(config_.cores_used);
  for (unsigned c = 0; c < config_.cores_used; ++c) {
    const auto& tel = node.machine->telemetry(c);
    const double d_instr = tel.instructions - node.instr_base[c];
    const double d_cycles = tel.active_cycles - node.cycles_base[c];
    node.instr_base[c] = tel.instructions;
    node.cycles_base[c] = tel.active_cycles;
    const AppSignal* app = c == 0 ? &hp : tenants[c].sig;
    if (c != 0 && app) ++st.tenants;
    if (!app || d_cycles <= 0.0) continue;
    const double ipc = d_instr / d_cycles;
    const double alone = app->ipc_alone;
    pairs.push_back({alone, ipc});
    if (c == 0 && alone > 0.0) {
      st.hp_norm = ipc / alone;
      st.hp_slowdown = ipc > 0.0 ? alone / ipc : 0.0;
    }
  }
  st.efu = metrics::effective_utilisation(pairs);
  st.link_rho = std::min(node.machine->last_link_utilisation(), 1.0);
  st.slo_violated = st.hp_norm < config_.slo_norm;
  epoch_stats_[i] = st;
}

void Cluster::reduce(EpochMetrics& m) {
  double efu_sum = 0.0;
  double hp_norm_sum = 0.0;
  double rho_sum = 0.0;
  std::uint64_t occupied_violations = 0;
  epoch_efu_hist_.reset();
  epoch_slowdown_hist_.reset();
  // Single-threaded fold over the shard outputs, strictly in machine-index
  // order — sums and histogram `sum`s see one fixed operand order, so the
  // row and every metrics export replay bit-for-bit at any worker count.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    const MachineEpochStat& st = epoch_stats_[i];
    efu_sum += st.efu;
    hp_norm_sum += st.hp_norm;
    rho_sum += st.link_rho;
    epoch_efu_hist_.record(st.efu);
    if (st.hp_slowdown > 0.0) epoch_slowdown_hist_.record(st.hp_slowdown);
    if (st.slo_violated) {
      ++m.slo_violations;
      ++node.slo_streak;
      if (st.tenants > 0) ++occupied_violations;
    } else {
      node.slo_streak = 0;
    }
    if (st.tenants > 0) ++m.occupied_machines;
    if (config_.metrics) {
      metrics_.efu->record(st.efu);
      metrics_.hp_norm->record(st.hp_norm);
      if (st.hp_slowdown > 0.0) {
        metrics_.hp_slowdown->record(st.hp_slowdown);
      }
      metrics_.link_rho->record(st.link_rho);
      for (const Tenant& t : index_->tenants(static_cast<unsigned>(i))) {
        if (t.sig) metrics_.tenant_footprint->record(t.sig->footprint_bytes);
      }
      const sim::SolverStats& ss = node.machine->solver_stats();
      metrics_.solver_quanta->inc(ss.quanta - node.solver_base.quanta);
      metrics_.solver_replays->inc(ss.replays - node.solver_base.replays);
      metrics_.solver_solves->inc(ss.solves - node.solver_base.solves);
      metrics_.solver_stable->inc(ss.stable_solves -
                                  node.solver_base.stable_solves);
      metrics_.solver_rounds->inc(ss.total_rounds() -
                                  node.solver_base.total_rounds());
      metrics_.solver_inv_actuator->inc(
          ss.invalidations_actuator -
          node.solver_base.invalidations_actuator);
      metrics_.solver_inv_fingerprint->inc(
          ss.invalidations_fingerprint -
          node.solver_base.invalidations_fingerprint);
      node.solver_base = ss;
    }
  }
  const auto n = static_cast<double>(nodes_.size());
  m.tenants = tenants_running();
  m.fleet_efu = efu_sum / n;
  m.hp_norm_mean = hp_norm_sum / n;
  m.slo_violation_rate = static_cast<double>(m.slo_violations) / n;
  m.link_rho_mean = rho_sum / n;
  m.efu_p50 = epoch_efu_hist_.percentile(50.0);
  m.efu_p95 = epoch_efu_hist_.percentile(95.0);
  m.efu_p99 = epoch_efu_hist_.percentile(99.0);
  m.hp_slowdown_p50 = epoch_slowdown_hist_.percentile(50.0);
  m.hp_slowdown_p95 = epoch_slowdown_hist_.percentile(95.0);
  m.hp_slowdown_p99 = epoch_slowdown_hist_.percentile(99.0);
  m.hp_slowdown_max = epoch_slowdown_hist_.max();
  m.slo_violation_rate_occupied =
      m.occupied_machines
          ? static_cast<double>(occupied_violations) /
                static_cast<double>(m.occupied_machines)
          : 0.0;
  if (config_.metrics) {
    metrics_.arrivals->inc(m.arrivals);
    metrics_.departures->inc(m.departures);
    metrics_.rejected->inc(m.rejected);
    metrics_.migrations->inc(m.migrations);
    metrics_.slo_violations->inc(m.slo_violations);
    metrics_.epochs->inc();
    metrics_.tenants->set(static_cast<double>(m.tenants));
    metrics_.occupied->set(static_cast<double>(m.occupied_machines));
    metrics_.t_sec->set(m.t_sec);
  }
}

EpochMetrics Cluster::step_epoch() {
  const double epoch_start = static_cast<double>(epoch_) * config_.epoch_sec;
  const double epoch_end = epoch_start + config_.epoch_sec;

  EpochMetrics m;
  m.epoch = epoch_;
  m.t_sec = epoch_end;

  // Wall-clock scopes land in TimerRegistry::global() (printed under
  // --profile); kTimer trace emission stays mask-gated, so default traces
  // and all exports remain deterministic.
  auto* tr_timers = &trace::resolve(config_.tracer);
  trace::ScopedTimer epoch_timer("fleet.epoch", tr_timers);
  {
    // The parent scope keeps the historical all-in "control plane" number
    // comparable across versions; the child scopes split it into the three
    // phases so a profile shows *which* one dominates (arrivals, usually).
    trace::ScopedTimer t("fleet.placement", tr_timers);
    {
      trace::ScopedTimer td("fleet.departures", tr_timers);
      do_departures(epoch_start, m);
    }
    {
      trace::ScopedTimer tm("fleet.migrations", tr_timers);
      do_migrations(m);
    }
    {
      trace::ScopedTimer ta("fleet.arrivals", tr_timers);
      do_arrivals(epoch_end, m);
    }
  }
  {
    trace::ScopedTimer t("fleet.step", tr_timers);
    step_all(epoch_end);
  }
  {
    trace::ScopedTimer t("fleet.reduce", tr_timers);
    reduce(m);
  }

  auto& tr = trace::resolve(config_.tracer);
  if (tr.enabled(trace::Kind::kFleetEpoch)) {
    tr.emit(trace::Kind::kFleetEpoch, epoch_end,
            {{"epoch", m.epoch},
             {"tenants", m.tenants},
             {"arrivals", m.arrivals},
             {"departures", m.departures},
             {"rejected", m.rejected},
             {"migrations", m.migrations},
             {"fleet_efu", m.fleet_efu},
             {"hp_norm_mean", m.hp_norm_mean},
             {"slo_violations", m.slo_violations},
             {"link_rho_mean", m.link_rho_mean}});
  }
  ++epoch_;
  return m;
}

std::vector<EpochMetrics> Cluster::run(std::uint64_t n_epochs) {
  std::vector<EpochMetrics> rows;
  rows.reserve(n_epochs);
  for (std::uint64_t i = 0; i < n_epochs; ++i) rows.push_back(step_epoch());
  return rows;
}

double Cluster::mean_efu(const std::vector<EpochMetrics>& rows) {
  if (rows.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : rows) sum += r.fleet_efu;
  return sum / static_cast<double>(rows.size());
}

}  // namespace dicer::fleet

#include "fleet/cluster.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "metrics/metrics.hpp"
#include "policy/factory.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace dicer::fleet {

namespace {

/// Ratio-valued distributions (EFU, normalised IPC, slowdown, link rho):
/// ~6% relative resolution from 0.02 up past 6 — tight enough that the
/// interpolated p50/p95/p99 columns track the exact sample percentiles.
constexpr telemetry::HistogramSpec kRatioSpec{0.02, 1.06, 100};
/// Tenant footprints: 64 KiB .. ~2.3 GiB.
constexpr telemetry::HistogramSpec kBytesSpec{64.0 * 1024.0, 1.25, 48};
/// Latencies denominated in simulated periods (epochs).
constexpr telemetry::HistogramSpec kPeriodsSpec{0.25, 1.5, 24};

using util::fmt17;

/// One column of the epoch rows: a count or a real-valued field.
struct EpochColumn {
  const char* name;
  std::uint64_t EpochMetrics::*count;
  double EpochMetrics::*real;
};

constexpr EpochColumn kEpochColumns[] = {
    {"epoch", &EpochMetrics::epoch, nullptr},
    {"t_sec", nullptr, &EpochMetrics::t_sec},
    {"tenants", &EpochMetrics::tenants, nullptr},
    {"occupied_machines", &EpochMetrics::occupied_machines, nullptr},
    {"arrivals", &EpochMetrics::arrivals, nullptr},
    {"departures", &EpochMetrics::departures, nullptr},
    {"rejected", &EpochMetrics::rejected, nullptr},
    {"migrations", &EpochMetrics::migrations, nullptr},
    {"fleet_efu", nullptr, &EpochMetrics::fleet_efu},
    {"hp_norm_mean", nullptr, &EpochMetrics::hp_norm_mean},
    {"slo_violations", &EpochMetrics::slo_violations, nullptr},
    {"slo_violation_rate", nullptr, &EpochMetrics::slo_violation_rate},
    {"link_rho_mean", nullptr, &EpochMetrics::link_rho_mean},
    {"efu_p50", nullptr, &EpochMetrics::efu_p50},
    {"efu_p95", nullptr, &EpochMetrics::efu_p95},
    {"efu_p99", nullptr, &EpochMetrics::efu_p99},
    {"hp_slowdown_p50", nullptr, &EpochMetrics::hp_slowdown_p50},
    {"hp_slowdown_p95", nullptr, &EpochMetrics::hp_slowdown_p95},
    {"hp_slowdown_p99", nullptr, &EpochMetrics::hp_slowdown_p99},
    {"hp_slowdown_max", nullptr, &EpochMetrics::hp_slowdown_max},
    {"slo_violation_rate_occupied", nullptr,
     &EpochMetrics::slo_violation_rate_occupied},
};

std::string cell(const EpochMetrics& m, const EpochColumn& c) {
  return c.count ? std::to_string(m.*c.count) : fmt17(m.*c.real);
}

/// Whether `tenant` (a running one) leaves in the epoch starting at
/// `epoch_start` — the one rule departures and the partition share.
bool departs(const Tenant& tenant, double epoch_start) {
  return tenant.depart_t_sec <= epoch_start;
}

/// The reduction's samples for one or two histograms (null: none), kept
/// in the order added and recorded a fixed-size batch at a time: the bits
/// of one record() per sample, with one record_all() per batch, in the
/// same memory at any fleet size.
class SampleBatch {
 public:
  explicit SampleBatch(telemetry::Histogram* first,
                       telemetry::Histogram* second = nullptr)
      : first_(first), second_(second) {}
  void add(double v) {
    buf_[n_++] = v;
    if (n_ == buf_.size()) flush();
  }
  void flush() {
    for (telemetry::Histogram* h : {first_, second_}) {
      if (h) h->record_all({buf_.data(), n_});
    }
    n_ = 0;
  }

 private:
  telemetry::Histogram* first_;
  telemetry::Histogram* second_;
  std::array<double, 256> buf_{};
  std::size_t n_ = 0;
};

}  // namespace

std::string epoch_csv_header() {
  std::string out;
  for (const auto& c : kEpochColumns) {
    if (!out.empty()) out += ',';
    out += c.name;
  }
  return out;
}

std::string epoch_csv_row(const EpochMetrics& m) {
  std::string out;
  for (const auto& c : kEpochColumns) {
    if (!out.empty()) out += ',';
    out += cell(m, c);
  }
  return out;
}

std::string epoch_jsonl_row(const EpochMetrics& m) {
  std::string out = "{";
  for (const auto& c : kEpochColumns) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += c.name;
    out += "\":";
    out += cell(m, c);
  }
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
  if (!(config.epoch_sec >= config.machine.quantum_sec)) {
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
  index_->reserve(config.num_machines);
  util::Xoshiro256 rng(config.seed);
  for (unsigned i = 0; i < config.num_machines; ++i) {
    index_->add_machine(&catalog.at(rng.below(catalog.size())));
  }
  nodes_.reserve(config.num_machines);
  for (unsigned i = 0; i < config.num_machines; ++i) {
    nodes_.push_back(boot_node(*index_->hp(i).profile));
  }
  epoch_stats_.reserve(nodes_.size());
  step_order_.reserve(nodes_.size());
  bind_metrics();

  // ~4 contiguous step shards per worker keeps the data plane
  // load-balanced under uneven policy intervals. The main thread also
  // steps queued shards once it reaches the barrier; the size counts only
  // the workers, since the main thread joins late, after the control
  // plane.
  shard_machines_ = std::clamp(config_.num_machines / (jobs_ * 4), 1u, 32u);
  DICER_INFO << "fleet: booted " << nodes_.size() << " machines ("
             << config.policy << " policy, " << placement_->name()
             << " placement, " << jobs_ << " jobs, " << shard_machines_
             << " machines per step shard)";
}

Cluster::~Cluster() = default;

Cluster::Node Cluster::boot_node(const sim::AppProfile& hp) const {
  Node node{policy::Host({.machine = config_.machine,
                          .cores_used = config_.cores_used,
                          .tracer = config_.tracer},
                         hp),
            policy::make_policy(config_.policy)};
  node.base = std::make_unique<Node::CoreBase[]>(config_.cores_used);
  node.policy->setup(node.host.context());
  return node;
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
      "dicer_solver_stable_solves_total",
      "solves that converged and armed replay");
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
  policy::Host& host = nodes_[m].host;
  host.machine().attach(core, tenant.sig->profile);
  // Machine::detach reverted this core to the full mask; re-associating
  // re-applies the BE CLOS mask the machine's policy currently runs.
  host.cat().associate(core, policy::kBeClos);
  host.monitor().track(core);
  return core;
}

Tenant Cluster::evict(unsigned m, unsigned core) {
  nodes_[m].host.machine().detach(core);
  return index_->detach(m, core);
}

const sim::AppProfile& Cluster::hp_of(unsigned machine) const {
  return *index_->hp(machine).profile;
}

template <typename Pick>
void Cluster::queue_machines(Pick pick) {
  for (unsigned i = 0; i < nodes_.size(); ++i) {
    if (!queued_[i] && pick(i)) queue_step(i);
  }
}

void Cluster::partition_machines(double epoch_start) {
  // Untouchable: closed (no engine places there), no tenant departing
  // (departures leave it alone) and not a migration source (migrations
  // evict only from sources). Only departures and migration evictions
  // open a closed machine, and both skip it, so the whole control plane
  // leaves its node and index slot untouched this epoch.
  const auto untouchable = [&](unsigned i) {
    if (index_->is_open(i)) return false;
    if (config_.migrate_after != 0 &&
        nodes_[i].slo_streak >= config_.migrate_after) {
      return false;
    }
    for (const Tenant& t : index_->tenants(i)) {
      if (t.sig && departs(t, epoch_start)) return false;
    }
    return true;
  };
  step_order_.clear();
  submitted_ = 0;
  queued_.assign(nodes_.size(), false);
  queue_machines(untouchable);
}

void Cluster::queue_step(unsigned i) {
  queued_[i] = true;
  step_order_.push_back(i);
}

void Cluster::do_departures(double epoch_start, EpochMetrics& m) {
  for (unsigned i = 0; i < nodes_.size(); ++i) {
    const std::span<const Tenant> tenants = index_->tenants(i);
    for (unsigned c = 1; c < tenants.size(); ++c) {
      if (tenants[c].sig && departs(tenants[c], epoch_start)) {
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
    const std::span<const Tenant> tenants = index_->tenants(i);
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
      tr.emit(trace::Kind::kMigration,
              static_cast<double>(epoch_) * config_.epoch_sec, [&] {
                return std::vector<trace::Field>{{"tenant", rec.tenant_id},
                                                 {"app", app.name},
                                                 {"from", i},
                                                 {"to", *dest}};
              });
    }
    placement_log_.push_back(std::move(rec));
  }
}

void Cluster::do_arrivals(double epoch_end, EpochMetrics& m,
                          util::TaskGroup& steps,
                          std::uint64_t end_quantum) {
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
      // No arrival places into a closed machine, so the one this
      // admission closed is final; its shard goes once it is full.
      if (!index_->is_open(*dest)) {
        queue_step(*dest);
        submit_full_shards(steps, end_quantum);
      }
    } else {
      ++m.rejected;
    }
    tr.emit(trace::Kind::kPlacement, a.t_sec, [&] {
      return std::vector<trace::Field>{
          {"tenant", a.id},
          {"app", a.app->name},
          {"accepted", rec.accepted},
          {"machine", rec.accepted ? rec.machine : 0u}};
    });
    placement_log_.push_back(std::move(rec));
  }
}

void Cluster::submit_full_shards(util::TaskGroup& steps,
                                 std::uint64_t end_quantum) {
  // Without a pool a shard runs inline where it is submitted, so stepping
  // early would only move the machines' time into the control plane's
  // timers; they wait for the submission after arrivals instead.
  if (!pool_) return;
  const std::size_t queued = step_order_.size() - submitted_;
  submit_steps(steps, submitted_ + queued / shard_machines_ * shard_machines_,
               end_quantum);
}

void Cluster::submit_steps(util::TaskGroup& steps, std::size_t end,
                           std::uint64_t end_quantum) {
  // Each machine runs the single-machine control loop to the epoch
  // boundary (its host's last step is cut there) — a pure function of the
  // node's own state. Machines never interact mid-epoch and the reduction
  // stays index-ordered, so CSV/metrics exports are byte-identical at any
  // `jobs` (and hence any shard slicing or submission order).
  for (std::size_t b = submitted_; b < end; b += shard_machines_) {
    const std::size_t e = std::min(end, b + shard_machines_);
    ++step_shards_;
    // step_order_ never grows past its reserved capacity, so its entries
    // stay put while the control plane appends more.
    const unsigned* order = step_order_.data();
    steps.run([this, order, b, e, end_quantum] {
      for (std::size_t k = b; k < e; ++k) {
        const unsigned i = order[k];
        nodes_[i].host.run_until(*nodes_[i].policy, end_quantum);
        fill_epoch_stat(i);
      }
    });
  }
  submitted_ = end;
}

void Cluster::fill_epoch_stat(std::size_t i) {
  Node& node = nodes_[i];
  const auto machine = static_cast<unsigned>(i);
  const AppSignal& hp = index_->hp(machine);
  const std::span<const Tenant> tenants = index_->tenants(machine);
  MachineEpochStat st;
  st.machine = machine;
  st.hp = hp.profile;
  std::array<metrics::IpcPair, sim::kMaxCores> pairs;
  std::size_t n_pairs = 0;
  for (unsigned c = 0; c < config_.cores_used; ++c) {
    const auto& tel = node.host.machine().telemetry(c);
    Node::CoreBase& base = node.base[c];
    const double d_instr = tel.instructions - base.instructions;
    const double d_cycles = tel.active_cycles - base.cycles;
    base.instructions = tel.instructions;
    base.cycles = tel.active_cycles;
    const AppSignal* app = c == 0 ? &hp : tenants[c].sig;
    if (c != 0 && app) ++st.tenants;
    if (!app || d_cycles <= 0.0) continue;
    const double ipc = d_instr / d_cycles;
    const double alone = app->ipc_alone;
    pairs[n_pairs++] = {alone, ipc};
    if (c == 0 && alone > 0.0) {
      st.hp_norm = ipc / alone;
      st.hp_slowdown = ipc > 0.0 ? alone / ipc : 0.0;
    }
  }
  st.efu = metrics::effective_utilisation({pairs.data(), n_pairs});
  st.link_rho = std::min(node.host.machine().last_link_utilisation(), 1.0);
  st.slo_violated = st.hp_norm < config_.slo_norm;
  const sim::SolverStats& ss = node.host.machine().solver_stats();
  const SolverCounts now{ss.quanta,
                         ss.replays,
                         ss.solves,
                         ss.stable_solves,
                         ss.total_rounds(),
                         ss.invalidations_actuator,
                         ss.invalidations_fingerprint};
  const SolverCounts& base = node.solver_base;
  st.solver = {now.quanta - base.quanta,
               now.replays - base.replays,
               now.solves - base.solves,
               now.stable_solves - base.stable_solves,
               now.rounds - base.rounds,
               now.invalidations_actuator - base.invalidations_actuator,
               now.invalidations_fingerprint -
                   base.invalidations_fingerprint};
  node.solver_base = now;
  epoch_stats_[i] = st;
}

void Cluster::reduce(EpochMetrics& m) {
  double efu_sum = 0.0;
  double hp_norm_sum = 0.0;
  double rho_sum = 0.0;
  std::uint64_t occupied_violations = 0;
  SolverCounts solver;  // the epoch's solver deltas, summed over machines
  epoch_efu_hist_.reset();
  epoch_slowdown_hist_.reset();
  SampleBatch efu(&epoch_efu_hist_, metrics_.efu);
  SampleBatch slowdown(&epoch_slowdown_hist_, metrics_.hp_slowdown);
  SampleBatch hp_norm(metrics_.hp_norm);
  SampleBatch link_rho(metrics_.link_rho);
  SampleBatch footprint(metrics_.tenant_footprint);
  // Single-threaded fold over the shard outputs, strictly in machine-index
  // order — sums and every histogram's samples see one fixed operand
  // order, so the row and every metrics export replay bit-for-bit at any
  // worker count.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    const MachineEpochStat& st = epoch_stats_[i];
    efu_sum += st.efu;
    hp_norm_sum += st.hp_norm;
    rho_sum += st.link_rho;
    efu.add(st.efu);
    if (st.hp_slowdown > 0.0) slowdown.add(st.hp_slowdown);
    if (config_.metrics) {
      hp_norm.add(st.hp_norm);
      link_rho.add(st.link_rho);
      for (const Tenant& t : index_->tenants(static_cast<unsigned>(i))) {
        if (t.sig) footprint.add(t.sig->footprint_bytes);
      }
    }
    if (st.slo_violated) {
      ++m.slo_violations;
      ++node.slo_streak;
      if (st.tenants > 0) ++occupied_violations;
    } else {
      node.slo_streak = 0;
    }
    if (st.tenants > 0) ++m.occupied_machines;
    const SolverCounts& d = st.solver;
    solver.quanta += d.quanta;
    solver.replays += d.replays;
    solver.solves += d.solves;
    solver.stable_solves += d.stable_solves;
    solver.rounds += d.rounds;
    solver.invalidations_actuator += d.invalidations_actuator;
    solver.invalidations_fingerprint += d.invalidations_fingerprint;
  }
  for (SampleBatch* b : {&efu, &slowdown, &hp_norm, &link_rho, &footprint}) {
    b->flush();
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
    // Integer sums, so one add per counter exports what one per machine
    // would.
    metrics_.solver_quanta->inc(solver.quanta);
    metrics_.solver_replays->inc(solver.replays);
    metrics_.solver_solves->inc(solver.solves);
    metrics_.solver_stable->inc(solver.stable_solves);
    metrics_.solver_rounds->inc(solver.rounds);
    metrics_.solver_inv_actuator->inc(solver.invalidations_actuator);
    metrics_.solver_inv_fingerprint->inc(solver.invalidations_fingerprint);
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
  // Machines step on the pool as soon as the control plane is done with
  // them: the untouchable ones now, the closed ones after migrations and
  // those arrivals close in full shards, the rest after arrivals. `steps`
  // waits for them even when the control plane throws.
  partition_machines(epoch_start);
  untouchable_machine_epochs_ += step_order_.size();
  epoch_stats_.resize(nodes_.size());
  util::TaskGroup steps(pool_.get());
  // Every machine ends the epoch on the same whole quantum.
  const std::uint64_t end_quantum =
      (epoch_ + 1) * config_.machine.quanta(config_.epoch_sec);
  submit_steps(steps, step_order_.size(), end_quantum);
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
    // Departures and migrations are over, and only they open a closed
    // machine: every closed machine is final for the epoch.
    queue_machines([&](unsigned i) { return !index_->is_open(i); });
    submit_full_shards(steps, end_quantum);
    {
      trace::ScopedTimer ta("fleet.arrivals", tr_timers);
      do_arrivals(epoch_end, m, steps, end_quantum);
    }
  }
  final_machine_epochs_ += step_order_.size();
  {
    // The machines arrivals left open, plus the wait for everything
    // submitted earlier; the waiting thread steps whatever shards are
    // still queued.
    trace::ScopedTimer t("fleet.step", tr_timers);
    queue_machines([](unsigned) { return true; });
    submit_steps(steps, step_order_.size(), end_quantum);
    waiter_step_shards_ += steps.wait();
  }
  {
    trace::ScopedTimer t("fleet.reduce", tr_timers);
    reduce(m);
  }

  auto& tr = trace::resolve(config_.tracer);
  tr.emit(trace::Kind::kFleetEpoch, epoch_end, [&] {
    return std::vector<trace::Field>{{"epoch", m.epoch},
                                     {"tenants", m.tenants},
                                     {"arrivals", m.arrivals},
                                     {"departures", m.departures},
                                     {"rejected", m.rejected},
                                     {"migrations", m.migrations},
                                     {"fleet_efu", m.fleet_efu},
                                     {"hp_norm_mean", m.hp_norm_mean},
                                     {"slo_violations", m.slo_violations},
                                     {"link_rho_mean", m.link_rho_mean}};
  });
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

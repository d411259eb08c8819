// fleet::Cluster — a datacenter of sim::Machine instances under tenant
// churn.
//
// Every machine hosts one long-running HP service (drawn deterministically
// from the catalog at boot) on core 0 and up to cores_used-1 best-effort
// tenants, each machine governed by its own policy instance
// (policy::factory — DICER by default, so the fleet is ~N independent
// copies of the paper's single-machine loop). Who runs where lives in one
// place, the PlacementIndex: a node holds only its simulation objects and
// epoch baselines. Time advances in epochs:
//
//   0. partition (machine-index order): a machine is *untouchable* this
//      epoch when it has no free BE slot, no tenant due to depart and no
//      SLO streak that makes it a migration source. Every engine places
//      only into open machines, and only departures and migration
//      evictions open a full one, so the control plane writes nothing of
//      an untouchable machine's node or index slot, and its scans read
//      only what a step leaves alone (tenant list, SLO streak)
//   1. control plane (single-threaded, machine-index order): departures
//      -> SLO-triggered migrations -> arrivals, each arrival decided by the
//      PlacementEngine off the PlacementIndex and committed (index, then
//      machine) before the next one is looked at
//   2. data plane: every machine's policy::Host runs its control loop to
//      the epoch boundary, in shards of machines spread across a
//      util::ThreadPool. A machine's shard goes to the pool as soon as the
//      control plane is done with the machine: the untouchable machines
//      before step 1; once migrations are over, every other closed
//      machine (only departures and migration evictions open one, and
//      both are done) and, during arrivals, each machine an admission
//      closes (no arrival places into a closed machine), a whole shard at
//      a time; the rest after arrivals. The main thread steps queued
//      shards itself while it waits for them. Machines never interact
//      mid-epoch, so any worker count replays the serial fleet
//      bit-for-bit. With no pool every shard runs inline where it is
//      submitted: the untouchable ones before step 1, the rest after it
//   3. reduction (single-threaded, machine-index order), once every shard
//      is done: each shard left a MachineEpochStat (EFU / HP QoS / link rho
//      from telemetry deltas) in its machine's slot; the fold walks them in
//      index order into one EpochMetrics row and gathers each histogram's
//      samples, which the per-epoch percentile histograms and — when
//      FleetConfig::metrics is set — the telemetry::Registry record in
//      batches of 256
//
// The determinism contract matches the sweep's: same (config, seed) =>
// byte-identical per-epoch CSV, placement log and metrics exports
// (Prometheus text, epoch JSONL) at any `jobs`.
// Placement decisions, migrations and per-epoch aggregates are also
// emitted as trace events (kPlacement / kMigration / kFleetEpoch) through
// the dicer::trace sinks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/churn.hpp"
#include "fleet/directory.hpp"
#include "fleet/placement.hpp"
#include "fleet/placement_index.hpp"
#include "policy/host.hpp"
#include "sim/core/catalog.hpp"
#include "sim/machine.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"
#include "util/thread_pool.hpp"

namespace dicer::fleet {

struct FleetConfig {
  unsigned num_machines = 100;
  /// Cores used per machine: core 0 is the HP, the rest are BE slots.
  unsigned cores_used = 10;
  sim::MachineConfig machine{};
  std::string policy = "DICER";     ///< per-machine policy (policy::factory)
  std::string placement = "mrc";    ///< random | least-loaded | mrc
  double epoch_sec = 1.0;
  double slo_norm = 0.90;           ///< HP SLO: normalised IPC >= slo_norm
  /// Migrate one BE off a machine whose HP violated its SLO for this many
  /// consecutive epochs (0 disables migration).
  unsigned migrate_after = 3;
  ChurnConfig churn{};
  std::uint64_t seed = 42;          ///< HP assignment + random placement
  unsigned jobs = 0;                ///< stepping shards; 0 = auto
  /// Event sink (null = process-global tracer).
  trace::Tracer* tracer = nullptr;
  /// Metrics registry for fleet-wide distributions, actuation counters and
  /// per-machine solver stats (null = no metric recording). Per-machine
  /// samples are produced by the stepping shards and folded into the
  /// registry in machine-index order, so exports are byte-identical at any
  /// `jobs` count.
  telemetry::Registry* metrics = nullptr;
};

/// One epoch's fleet-level telemetry.
struct EpochMetrics {
  std::uint64_t epoch = 0;     ///< 0-based
  double t_sec = 0.0;          ///< simulated time at epoch end
  std::uint64_t tenants = 0;   ///< BE tenants running at epoch end
  std::uint64_t occupied_machines = 0;  ///< machines with >= 1 BE tenant
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t rejected = 0;    ///< arrivals with no feasible machine
  std::uint64_t migrations = 0;
  double fleet_efu = 0.0;        ///< mean per-machine EFU over the epoch
  double hp_norm_mean = 0.0;     ///< mean normalised HP IPC
  std::uint64_t slo_violations = 0;  ///< machines under slo_norm this epoch
  double slo_violation_rate = 0.0;   ///< slo_violations / num_machines
  double link_rho_mean = 0.0;    ///< mean end-of-epoch link utilisation
  /// Tail statistics from the per-epoch histograms: a fleet can hold a
  /// healthy *mean* EFU while a tail of machines burns their HP's SLO, so
  /// the row carries the distribution, not just its first moment.
  double efu_p50 = 0.0;
  double efu_p95 = 0.0;
  double efu_p99 = 0.0;
  /// HP slowdown (IPC_alone / IPC, >= ~1 under contention) percentiles
  /// over machines whose HP executed this epoch.
  double hp_slowdown_p50 = 0.0;
  double hp_slowdown_p95 = 0.0;
  double hp_slowdown_p99 = 0.0;
  double hp_slowdown_max = 0.0;
  /// SLO violations among *occupied* machines / occupied machines — the
  /// honest denominator (an idle machine cannot meaningfully violate).
  /// `slo_violation_rate` keeps the historical all-machines denominator
  /// for comparability with pre-existing CSVs.
  double slo_violation_rate_occupied = 0.0;
};

/// Shared CSV shape for the per-epoch fleet metrics (full %.17g precision,
/// so the jobs-invariance tests pin every bit).
std::string epoch_csv_header();
std::string epoch_csv_row(const EpochMetrics& m);
/// The same row as one JSON object (fixed key order = CSV column order,
/// %.17g doubles) — the per-epoch JSONL time series for offline plotting.
std::string epoch_jsonl_row(const EpochMetrics& m);

/// The solver counters the fleet exports: a machine's cumulative values,
/// or their deltas over one epoch.
struct SolverCounts {
  std::uint64_t quanta = 0;
  std::uint64_t replays = 0;
  std::uint64_t solves = 0;
  std::uint64_t stable_solves = 0;
  std::uint64_t rounds = 0;
  std::uint64_t invalidations_actuator = 0;
  std::uint64_t invalidations_fingerprint = 0;
};

/// One machine's contribution to an epoch, computed by its stepping shard
/// and folded fleet-wide in machine-index order. `fleet_top` ranks its
/// worst-K table from these.
struct MachineEpochStat {
  unsigned machine = 0;
  const sim::AppProfile* hp = nullptr;  ///< the machine's HP app
  double efu = 0.0;          ///< per-machine EFU over the epoch
  double hp_norm = 0.0;      ///< HP normalised IPC (0 if unmeasurable)
  double hp_slowdown = 0.0;  ///< 1 / hp_norm (0 if unmeasurable)
  double link_rho = 0.0;     ///< end-of-epoch link utilisation, capped at 1
  unsigned tenants = 0;      ///< BE tenants at epoch end
  bool slo_violated = false; ///< hp_norm < slo_norm
  SolverCounts solver;       ///< solver-counter deltas over the epoch
};

/// One placement-engine decision, in decision order (arrivals and
/// migrations interleaved as they happened).
struct PlacementRecord {
  std::uint64_t tenant_id = 0;
  std::uint64_t epoch = 0;
  std::string app;
  bool accepted = false;
  bool migration = false;  ///< re-placement off an SLO-violating machine
  unsigned machine = 0;    ///< valid iff accepted
  unsigned core = 0;       ///< valid iff accepted
};

class Cluster {
 public:
  /// Builds num_machines booted machines (HP attached, policy set up).
  /// `catalog` must outlive the cluster. Throws std::invalid_argument on
  /// a nonsensical config (no machines, cores out of range, epoch shorter
  /// than a quantum, slo_norm outside (0, 1]).
  Cluster(const FleetConfig& config, const sim::AppCatalog& catalog);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Advance the whole fleet by one epoch and return its metrics row.
  EpochMetrics step_epoch();
  /// step_epoch() n times.
  std::vector<EpochMetrics> run(std::uint64_t n_epochs);

  const FleetConfig& config() const noexcept { return config_; }
  const AppDirectory& directory() const noexcept { return directory_; }
  unsigned num_machines() const noexcept {
    return static_cast<unsigned>(nodes_.size());
  }
  std::uint64_t epochs_done() const noexcept { return epoch_; }
  /// BE tenants currently running fleet-wide (the index's O(1) count).
  std::uint64_t tenants_running() const noexcept {
    return index_->tenants_running();
  }
  /// The HP app hosted on `machine`.
  const sim::AppProfile& hp_of(unsigned machine) const;
  /// The live placement index every decision reads (never null).
  const PlacementIndex* placement_index() const noexcept {
    return index_.get();
  }
  /// Every placement decision so far, in decision order.
  const std::vector<PlacementRecord>& placement_log() const noexcept {
    return placement_log_;
  }
  /// Machine-epochs stepped alongside the whole control plane so far: the
  /// untouchable machines of every epoch (a deterministic count, the same
  /// at any `jobs`).
  std::uint64_t untouchable_machine_epochs() const noexcept {
    return untouchable_machine_epochs_;
  }
  /// Machine-epochs the control plane was done with before arrivals
  /// ended: the untouchable machines, the machines closed once migrations
  /// were over and those an arrival closed (deterministic like the
  /// untouchable count, which it includes). With a pool, all but the
  /// last partial shard of them were submitted to it by then.
  std::uint64_t final_machine_epochs() const noexcept {
    return final_machine_epochs_;
  }
  /// Data-plane step shards submitted so far, and how many of them the
  /// main thread ran while it waited at the epoch barrier. The second
  /// depends on wall-clock timing (0 without a pool), so it feeds no
  /// export; --profile prints it.
  std::uint64_t step_shards() const noexcept { return step_shards_; }
  std::uint64_t step_shards_run_by_waiter() const noexcept {
    return waiter_step_shards_;
  }
  /// Per-machine stats of the most recent epoch, in machine-index order
  /// (empty until the first step_epoch()).
  const std::vector<MachineEpochStat>& last_epoch_stats() const noexcept {
    return epoch_stats_;
  }

  /// Mean fleet EFU over a run's rows (0 for an empty run).
  static double mean_efu(const std::vector<EpochMetrics>& rows);

 private:
  /// One machine plus its whole single-machine control plane: the policy
  /// host (machine, RDT surface, context) and the policy it steps.
  struct Node {
    policy::Host host;
    std::unique_ptr<policy::Policy> policy;
    unsigned slo_streak = 0;  ///< consecutive SLO-violating epochs
    /// Telemetry baselines for epoch deltas, one per core in use.
    struct CoreBase {
      double instructions = 0.0;
      double cycles = 0.0;
    };
    std::unique_ptr<CoreBase[]> base{};
    /// Solver counters at the last epoch stat (per-epoch deltas).
    SolverCounts solver_base{};
  };

  /// Registry handles resolved once at boot (all null when
  /// config.metrics == nullptr).
  struct MetricSet {
    telemetry::Histogram* efu = nullptr;
    telemetry::Histogram* hp_norm = nullptr;
    telemetry::Histogram* hp_slowdown = nullptr;
    telemetry::Histogram* link_rho = nullptr;
    telemetry::Histogram* tenant_footprint = nullptr;
    telemetry::Histogram* placement_wait = nullptr;
    telemetry::Histogram* migration_streak = nullptr;
    telemetry::Counter* arrivals = nullptr;
    telemetry::Counter* departures = nullptr;
    telemetry::Counter* rejected = nullptr;
    telemetry::Counter* migrations = nullptr;
    telemetry::Counter* slo_violations = nullptr;
    telemetry::Counter* epochs = nullptr;
    telemetry::Gauge* tenants = nullptr;
    telemetry::Gauge* occupied = nullptr;
    telemetry::Gauge* t_sec = nullptr;
    telemetry::Counter* solver_quanta = nullptr;
    telemetry::Counter* solver_replays = nullptr;
    telemetry::Counter* solver_solves = nullptr;
    telemetry::Counter* solver_stable = nullptr;
    telemetry::Counter* solver_rounds = nullptr;
    telemetry::Counter* solver_inv_actuator = nullptr;
    telemetry::Counter* solver_inv_fingerprint = nullptr;
  };

  Node boot_node(const sim::AppProfile& hp) const;
  void bind_metrics();
  /// Record `tenant` on machine `m`'s lowest free core in the index and
  /// attach it there (mask re-associated to the BE CLOS — Machine::detach
  /// reverts cores to the full mask). Returns the core.
  unsigned admit(unsigned m, const Tenant& tenant);
  /// Remove the tenant on `core` of machine `m` from the index and the
  /// machine; returns it.
  Tenant evict(unsigned m, unsigned core);
  /// Start this epoch's step_order_ with its untouchable machines, in
  /// index order.
  void partition_machines(double epoch_start);
  /// Queue every machine not queued yet that `pick(i)` accepts, in index
  /// order.
  template <typename Pick>
  void queue_machines(Pick pick);
  /// Append machine i to step_order_: the control plane is done with it.
  void queue_step(unsigned i);
  void do_departures(double epoch_start, EpochMetrics& m);
  void do_migrations(EpochMetrics& m);
  /// Place the epoch's arrivals; each machine an admission closes is
  /// queued, and goes to `steps` as soon as it fills a shard.
  void do_arrivals(double epoch_end, EpochMetrics& m, util::TaskGroup& steps,
                   std::uint64_t end_quantum);
  /// Submit step_order_[submitted_, end) to `steps` in shards of
  /// shard_machines_: each task runs its machines to quantum
  /// `end_quantum` and fills their epoch stats.
  void submit_steps(util::TaskGroup& steps, std::size_t end,
                    std::uint64_t end_quantum);
  /// submit_steps() over the queued machines that fill whole shards,
  /// when there is a pool to step them while the control plane runs.
  void submit_full_shards(util::TaskGroup& steps, std::uint64_t end_quantum);
  /// Shard-local epoch stat for machine i (pure function of the node's own
  /// state and index slot — runs on whichever thread stepped the machine,
  /// possibly while the control plane mutates other machines).
  void fill_epoch_stat(std::size_t i);
  void reduce(EpochMetrics& m);

  FleetConfig config_;
  const sim::AppCatalog* catalog_;
  AppDirectory directory_;
  ChurnGenerator churn_;
  std::unique_ptr<PlacementEngine> placement_;
  /// Fleet tenancy — the HP and the tenant of every core of every
  /// machine — changed only by admit/evict and read by every placement
  /// decision. Declared after directory_ (it holds signal pointers into
  /// it).
  std::unique_ptr<PlacementIndex> index_;
  std::vector<Node> nodes_;
  /// Data-plane worker pool; null when jobs_ == 1.
  std::unique_ptr<util::ThreadPool> pool_;
  unsigned jobs_ = 1;  ///< data-plane stepping shards
  std::uint64_t epoch_ = 0;
  std::vector<PlacementRecord> placement_log_;
  /// Shard outputs, indexed by machine: each worker writes only its
  /// machine's slot, the reduction reads them in index order.
  std::vector<MachineEpochStat> epoch_stats_;
  MetricSet metrics_;
  /// Per-epoch distribution scratch behind the percentile CSV columns
  /// (reset every reduction; independent of config.metrics).
  telemetry::Histogram epoch_efu_hist_;
  telemetry::Histogram epoch_slowdown_hist_;
  /// Machines per data-plane step shard, ~4 shards per worker
  /// (clamp(N / (jobs * 4), 1, 32)); a shard is a contiguous run of
  /// step_order_ queued at one point of the epoch.
  std::size_t shard_machines_ = 1;
  /// This epoch's machines in the order the control plane is done with
  /// them: the untouchable ones, the closed ones after migrations, the
  /// ones arrivals close, then the rest. Reserved for every machine, so
  /// appending never moves the entries submitted shards read.
  std::vector<unsigned> step_order_;
  std::size_t submitted_ = 0;  ///< step_order_ entries submitted so far
  std::vector<bool> queued_;   ///< by machine: in step_order_ this epoch
  std::uint64_t untouchable_machine_epochs_ = 0;
  std::uint64_t final_machine_epochs_ = 0;
  std::uint64_t step_shards_ = 0;
  std::uint64_t waiter_step_shards_ = 0;
};

}  // namespace dicer::fleet

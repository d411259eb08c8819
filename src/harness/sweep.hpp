// Policy sweep: run a set of policies over the representative workload
// sample across core counts — the shared computation behind Figs 5-8.
//
// Figures 6, 7 and 8 all plot the same 120-workload x {2..10 cores} x
// {UM, CT, DICER} grid through different metrics, and Fig 5 is the
// 10-core slice of it; the sweep runs once and is cached on disk so each
// bench binary stays cheap and the figures stay mutually consistent.
//
// The DICER ablation (bench/ablation_dicer) sweeps DICER variants over
// the same sample: which parts of DICER matter?
//  - DICER-noBW: bandwidth-saturation detection removed (the DCP-QoS /
//    Cook-style controller the related work section criticises).
//  - DICER+MBA: the paper's future-work extension that throttles the BE
//    class with MBA when the link saturates.
//  - DICER-literal: resample_cooldown_periods = 0, the literal Listing 1
//    driver that resamples on every saturated period.
//  - DICER-noPhase: phase_threshold effectively infinite — no phase
//    detection, resets driven by IPC only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/workloads.hpp"
#include "policy/dicer.hpp"

namespace dicer::harness {

struct SweepRow {
  std::string hp;
  std::string be;
  std::string policy;
  unsigned cores = 0;
  bool ct_favoured = false;   ///< class of the workload (from the study)
  double hp_alone = 0.0;
  double be_alone = 0.0;
  double hp_ipc = 0.0;
  double be_ipc = 0.0;        ///< mean across BE instances
  double efu = 0.0;

  double hp_norm() const { return hp_ipc / hp_alone; }
  double be_norm() const { return be_ipc / be_alone; }
};

struct SweepConfig {
  ConsolidationConfig base{};             ///< cores_used is overridden
  std::vector<std::string> policies{"UM", "CT", "DICER"};
  std::vector<unsigned> cores{2, 3, 4, 5, 6, 7, 8, 9, 10};
  /// Parallel workers (run_consolidation_grid). 0 = auto: $DICER_SWEEP_JOBS
  /// if set, else all hardware threads. Never changes a row.
  unsigned jobs = 0;
};

/// Run (or load from cache) the sweep over `sample`.
std::vector<SweepRow> policy_sweep(const sim::AppCatalog& catalog,
                                   const std::vector<BaselineEntry>& sample,
                                   const SweepConfig& config,
                                   const std::string& cache_path,
                                   bool force_recompute = false);

/// Rows matching a (policy, cores) cell.
std::vector<SweepRow> filter(const std::vector<SweepRow>& rows,
                             const std::string& policy, unsigned cores);

/// One DICER ablation variant's outcome over the sample.
struct AblationRow {
  std::string variant;
  double slo80 = 0.0;         ///< % of workloads with HP norm IPC >= 0.80
  double slo90 = 0.0;         ///< ... >= 0.90
  double efu_gmean = 0.0;
  double suci90_gmean = 0.0;  ///< SUCI(SLO=90%, lambda=1), floored at 1e-3
  policy::DicerStats stats;   ///< controller counters summed over the sample
  sim::SolverStats solver;    ///< convergence counters merged over the sample
};

/// The variants, in report order: DICER, DICER-noBW, DICER+MBA,
/// DICER-literal, DICER-noPhase.
const std::vector<std::string>& ablation_variants();

/// Run every (variant, workload) cell on run_consolidation_grid with `jobs`
/// workers (0 = resolve_sweep_jobs), then reduce each variant over the
/// sample in sample order. `config.enable_mba` must be set for DICER+MBA.
/// The rows are identical for any worker count.
std::vector<AblationRow> dicer_ablation(
    const sim::AppCatalog& catalog, const std::vector<BaselineEntry>& sample,
    const ConsolidationConfig& config, unsigned jobs = 0);

}  // namespace dicer::harness

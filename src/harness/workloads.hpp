// Workload enumeration, CT-F/CT-T classification and the 120-workload
// representative sample (paper §2.3.3, §2.4, §4.1).
//
// The paper crosses all 59 applications as HP with all 59 as BE (3481
// multiprogrammed workloads), classifies each by whether CT improves HP's
// performance over UM (CT-Favoured) or not (CT-Thwarted), and evaluates
// DICER on a representative sample of 120 workloads: 50 CT-F + 70 CT-T.
//
// The full 59x59x{UM,CT} baseline study is the most expensive computation
// in the reproduction, so its results are cached in a CSV next to the
// binaries; every bench transparently reuses it (pass force_recompute to
// refresh after model changes — the cache key hashes the catalog and the
// machine configuration, so stale caches are detected automatically).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/consolidation.hpp"
#include "sim/core/catalog.hpp"
#include "util/cache_file.hpp"

namespace dicer::harness {

/// One multiprogrammed workload: an HP app plus N-1 instances of a BE app.
struct WorkloadSpec {
  std::string hp;
  std::string be;

  std::string label() const { return hp + " " + be; }
};

/// Baseline (UM & CT) measurements for one workload at full core count.
struct BaselineEntry {
  WorkloadSpec spec;
  double hp_alone_ipc = 0.0;
  double be_alone_ipc = 0.0;
  double um_hp_ipc = 0.0;
  double um_be_ipc = 0.0;   ///< mean across BE instances
  double ct_hp_ipc = 0.0;
  double ct_be_ipc = 0.0;
  /// EFU (Eq. 1) over the HP and every BE instance's own IPC.
  double um_efu = 0.0;
  double ct_efu = 0.0;

  double um_slowdown() const { return hp_alone_ipc / um_hp_ipc; }
  double ct_slowdown() const { return hp_alone_ipc / ct_hp_ipc; }
  /// CT-Favoured: CT improves HP's performance over UM (§2.3.3). "No
  /// improvement" counts as CT-Thwarted, so CT must beat UM by more than a
  /// hardware-noise-sized margin to qualify.
  bool ct_favoured() const {
    return ct_hp_ipc > um_hp_ipc * (1.0 + kClassificationMargin);
  }

  static constexpr double kClassificationMargin = 0.03;
};

/// The full 59x59 baseline study.
struct BaselineStudy {
  ConsolidationConfig config;
  std::vector<BaselineEntry> entries;

  std::size_t count_ct_favoured() const;
  double fraction_ct_thwarted() const;
};

/// Run (or load from `cache_path`) the UM/CT baseline study over all pairs.
/// An empty cache_path disables caching. The 2 x pairs consolidations run
/// on run_consolidation_grid with `jobs` workers (0 = resolve_sweep_jobs);
/// the study and its cache file are identical for any worker count.
BaselineStudy baseline_study(const sim::AppCatalog& catalog,
                             const ConsolidationConfig& config,
                             const std::string& cache_path,
                             bool force_recompute = false, unsigned jobs = 0);

/// Persist / restore a study (the cache layer under baseline_study,
/// exposed for tooling and tests) as a util::CacheFile: a loaded study
/// equals the saved one bit for bit. Loading returns nullopt when the file
/// is missing, keyed for another catalog or configuration, or malformed.
void save_baseline_cache(const std::string& path, const BaselineStudy& study,
                         const sim::AppCatalog& catalog);
std::optional<BaselineStudy> load_baseline_cache(
    const std::string& path, const sim::AppCatalog& catalog,
    const ConsolidationConfig& config);

/// Deterministically pick the paper's representative sample from a study:
/// `n_ctf` CT-Favoured + `n_ctt` CT-Thwarted workloads (paper: 50 + 70),
/// spread across the slowdown range (stratified, not uniform-random, so
/// mild and severe workloads are both represented).
std::vector<BaselineEntry> representative_sample(const BaselineStudy& study,
                                                 std::size_t n_ctf = 50,
                                                 std::size_t n_ctt = 70,
                                                 std::uint64_t seed = 42);

/// Content hash of a catalog: names and every phase and MRC field the
/// simulator reads, so recalibration invalidates stale caches.
std::uint64_t catalog_fingerprint(const sim::AppCatalog& catalog);

/// Mixes the key inputs both harness caches share: the catalog fingerprint
/// and `config`'s machine and window. Not cores_used (the sweep overrides
/// it) nor enable_mba (the study's UM and CT never throttle, so
/// ablation_dicer's MBA-enabled config reuses fig1's study).
void mix_cache_inputs(util::KeyHasher& h, const sim::AppCatalog& catalog,
                      const ConsolidationConfig& config);

/// Where benches put shared cache files: $DICER_CACHE_DIR or ".".
std::string default_cache_dir();

}  // namespace dicer::harness

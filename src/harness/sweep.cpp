#include "harness/sweep.hpp"

#include <algorithm>
#include <memory>

#include "metrics/metrics.hpp"
#include "policy/dicer.hpp"
#include "policy/factory.hpp"
#include "util/cache_file.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace dicer::harness {

namespace {

constexpr const char* kSweepHeader =
    "hp,be,policy,cores,ctf,hp_alone,be_alone,hp_ipc,be_ipc,efu";

util::CacheFile sweep_file(const std::string& path,
                           const sim::AppCatalog& catalog,
                           const std::vector<BaselineEntry>& sample,
                           const SweepConfig& config) {
  // Everything a row is computed from; not the worker count, which never
  // changes a row.
  util::KeyHasher h;
  mix_cache_inputs(h, catalog, config.base);
  h.add(config.base.enable_mba).add(sample.size());
  for (const auto& e : sample) {
    h.add(e.spec.label()).add(e.ct_favoured());
    h.add(e.hp_alone_ipc).add(e.be_alone_ipc);
  }
  h.add(config.policies.size());
  for (const auto& p : config.policies) h.add(p);
  h.add(config.cores.size());
  for (unsigned c : config.cores) h.add(c);
  return {path, "sweep cache", h.key("dicer-sweep-v12"), kSweepHeader};
}

/// One cache row <-> one SweepRow (see util/cache_file.hpp).
template <class Row, class Entry>
void map_row(Row& row, Entry& r) {
  row.text(r.hp).text(r.be).text(r.policy).count(r.cores).flag(r.ct_favoured);
  row.real(r.hp_alone).real(r.be_alone).real(r.hp_ipc).real(r.be_ipc);
  row.real(r.efu);
}

/// The ablation's two local variants; every other name is a
/// policy::make_policy name.
std::unique_ptr<policy::Policy> make_variant(const std::string& name) {
  policy::DicerConfig cfg;
  if (name == "DICER-literal") {
    cfg.resample_cooldown_periods = 0;
  } else if (name == "DICER-noPhase") {
    cfg.phase_threshold = 1e9;
  } else {
    return policy::make_policy(name);
  }
  return std::make_unique<policy::Dicer>(cfg);
}

/// What one (variant, workload) cell contributes to its variant's row.
struct CellOutcome {
  double norm = 0.0;
  double efu = 0.0;
  policy::DicerStats stats;
  sim::SolverStats solver;
};

}  // namespace

std::vector<SweepRow> policy_sweep(const sim::AppCatalog& catalog,
                                   const std::vector<BaselineEntry>& sample,
                                   const SweepConfig& config,
                                   const std::string& cache_path,
                                   bool force_recompute) {
  const util::CacheFile file = sweep_file(cache_path, catalog, sample, config);
  const std::size_t total =
      sample.size() * config.policies.size() * config.cores.size();
  if (!cache_path.empty() && !force_recompute) {
    trace::ScopedTimer timer("sweep.load_cache");
    std::vector<SweepRow> rows;
    rows.reserve(total);
    if (file.load(total, [&](util::CacheRowReader& row) {
          map_row(row, rows.emplace_back());
        })) {
      return rows;
    }
  }

  // Every (workload, cores, policy) cell in the canonical order
  // sample x cores x policies, the cache's row order; each cell builds
  // its own policy::Host.
  const std::size_t n_cores = config.cores.size();
  const std::size_t n_pols = config.policies.size();
  std::vector<GridCell> cells;
  cells.reserve(total);
  for (const auto& entry : sample) {
    const auto* hp = &catalog.by_name(entry.spec.hp);
    const auto* be = &catalog.by_name(entry.spec.be);
    for (unsigned cores : config.cores) {
      for (std::size_t p = 0; p < n_pols; ++p) cells.push_back({hp, be, cores});
    }
  }
  std::vector<SweepRow> rows(total);
  {
    trace::ScopedTimer timer("sweep.compute");
    run_consolidation_grid(
        cells,
        [&](std::size_t i) {
          return policy::make_policy(config.policies[i % n_pols]);
        },
        [&](std::size_t i, const ConsolidationResult& res,
            const policy::Policy&) {
          const BaselineEntry& e = sample[i / (n_cores * n_pols)];
          rows[i] = {e.spec.hp, e.spec.be, config.policies[i % n_pols],
                     cells[i].cores_used, e.ct_favoured(), e.hp_alone_ipc,
                     e.be_alone_ipc, res.hp_ipc, res.be_ipc_mean,
                     metrics::effective_utilisation(res.ipc_pairs(
                         e.hp_alone_ipc, e.be_alone_ipc))};
        },
        config.base, config.jobs, "policy sweep");
  }

  if (!cache_path.empty()) {
    trace::ScopedTimer timer("sweep.save_cache");
    file.save([&](util::CacheRowWriter& row) {
      for (const auto& r : rows) {
        map_row(row, r);
        row.end_row();
      }
    });
  }
  return rows;
}

std::vector<SweepRow> filter(const std::vector<SweepRow>& rows,
                             const std::string& policy, unsigned cores) {
  std::vector<SweepRow> out;
  for (const auto& r : rows) {
    if (r.policy == policy && r.cores == cores) out.push_back(r);
  }
  return out;
}

const std::vector<std::string>& ablation_variants() {
  static const std::vector<std::string> variants = {
      "DICER", "DICER-noBW", "DICER+MBA", "DICER-literal", "DICER-noPhase"};
  return variants;
}

std::vector<AblationRow> dicer_ablation(
    const sim::AppCatalog& catalog, const std::vector<BaselineEntry>& sample,
    const ConsolidationConfig& config, unsigned jobs) {
  const auto& variants = ablation_variants();
  const std::size_t n_var = variants.size();
  // Workload-major cells: cell i runs variant i % n_var on workload
  // i / n_var, and builds its own policy::Host.
  std::vector<GridCell> cells;
  cells.reserve(sample.size() * n_var);
  for (const auto& e : sample) {
    const auto* hp = &catalog.by_name(e.spec.hp);
    const auto* be = &catalog.by_name(e.spec.be);
    for (std::size_t v = 0; v < n_var; ++v) {
      cells.push_back({hp, be, config.cores_used});
    }
  }
  std::vector<CellOutcome> outcomes(cells.size());
  run_consolidation_grid(
      cells, [&](std::size_t i) { return make_variant(variants[i % n_var]); },
      [&](std::size_t i, const ConsolidationResult& res,
          const policy::Policy& pol) {
        const BaselineEntry& e = sample[i / n_var];
        CellOutcome& o = outcomes[i];
        o.norm = res.hp_ipc / e.hp_alone_ipc;
        o.efu = metrics::effective_utilisation(
            res.ipc_pairs(e.hp_alone_ipc, e.be_alone_ipc));
        o.stats = static_cast<const policy::Dicer&>(pol).stats();
        o.solver = res.solver;
      },
      config, jobs, "ablation");

  std::vector<AblationRow> rows;
  for (std::size_t v = 0; v < n_var; ++v) {
    AblationRow row;
    row.variant = variants[v];
    std::vector<double> norms, efus, sucis;
    for (std::size_t w = 0; w < sample.size(); ++w) {
      const CellOutcome& o = outcomes[w * n_var + v];
      norms.push_back(o.norm);
      efus.push_back(o.efu);
      sucis.push_back(
          std::max(metrics::suci(o.norm >= 0.90, o.efu, 1.0), 1e-3));
      row.stats.periods += o.stats.periods;
      row.stats.samplings += o.stats.samplings;
      row.stats.sampling_steps += o.stats.sampling_steps;
      row.stats.way_donations += o.stats.way_donations;
      row.stats.phase_resets += o.stats.phase_resets;
      row.stats.perf_resets += o.stats.perf_resets;
      row.stats.rollbacks += o.stats.rollbacks;
      row.solver.merge(o.solver);
    }
    row.slo80 = 100.0 * metrics::slo_conformance(norms, 0.80);
    row.slo90 = 100.0 * metrics::slo_conformance(norms, 0.90);
    row.efu_gmean = util::gmean(efus);
    row.suci90_gmean = util::gmean(sucis);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace dicer::harness

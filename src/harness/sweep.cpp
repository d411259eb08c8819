#include "harness/sweep.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "metrics/metrics.hpp"
#include "policy/extensions.hpp"
#include "policy/factory.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace dicer::harness {

namespace {

constexpr const char* kSweepHeader =
    "hp,be,policy,cores,ctf,hp_alone,be_alone,hp_ipc,be_ipc,efu";

std::string sweep_key(const sim::AppCatalog& catalog,
                      const std::vector<BaselineEntry>& sample,
                      const SweepConfig& config) {
  // Order-sensitive FNV over the sample labels, policies and core counts,
  // plus every config field that shapes results: machine geometry (cores,
  // frequency, LLC ways, link), the fixed-point solver knobs and the
  // consolidation window/MBA settings. The worker count is deliberately
  // excluded — it never changes a row — so any `jobs` keeps serving the
  // same cache file.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  };
  for (const auto& e : sample) mix(e.spec.label());
  for (const auto& p : config.policies) mix(p);
  for (unsigned c : config.cores) mix(std::to_string(c));
  const auto& m = config.base.machine;
  char buf[352];
  std::snprintf(buf, sizeof buf,
                "dicer-sweep-v6:%016llx:%016llx:%u:%u:%g:%g:%g:%u:%g:%g:%g:%d",
                static_cast<unsigned long long>(catalog_fingerprint(catalog)),
                static_cast<unsigned long long>(h), m.llc.ways, m.num_cores,
                m.freq_hz, m.link.capacity_bytes_per_sec, m.quantum_sec,
                m.fixed_point_rounds, m.fixed_point_damping,
                config.base.min_window_sec, config.base.max_window_sec,
                config.base.enable_mba ? 1 : 0);
  return buf;
}

// Strict cell parsers: reject empty cells, trailing garbage ("12abc") and
// out-of-range values so a corrupt cache is detected instead of silently
// feeding nonsense into figures.
unsigned parse_cell_unsigned(const std::string& cell) {
  std::size_t pos = 0;
  const unsigned long v = std::stoul(cell, &pos);
  if (pos != cell.size() || v > 0xffffffffUL) {
    throw std::invalid_argument("bad unsigned '" + cell + "'");
  }
  return static_cast<unsigned>(v);
}

double parse_cell_double(const std::string& cell) {
  std::size_t pos = 0;
  const double v = std::stod(cell, &pos);
  if (pos != cell.size()) {
    throw std::invalid_argument("bad number '" + cell + "'");
  }
  return v;
}

bool parse_cell_bool(const std::string& cell) {
  if (cell == "1") return true;
  if (cell == "0") return false;
  throw std::invalid_argument("bad bool '" + cell + "'");
}

/// Load cached rows for `key`. Any defect — missing/foreign key line,
/// wrong column header, truncated row, garbage cell, trailing columns —
/// logs and returns empty so the caller recomputes. Never throws.
std::vector<SweepRow> load_sweep(const std::string& path,
                                 const std::string& key) {
  std::ifstream in(path);
  if (!in) return {};
  std::string line;
  if (!std::getline(in, line) || line != "# " + key) {
    DICER_INFO << "sweep cache " << path << " is stale; recomputing";
    return {};
  }
  if (!std::getline(in, line) || line != kSweepHeader) {
    DICER_WARN << "sweep cache " << path
               << " has an unexpected column header; recomputing";
    return {};
  }
  std::vector<SweepRow> rows;
  try {
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::istringstream ss(line);
      SweepRow r;
      std::string cell;
      auto next = [&]() {
        if (!std::getline(ss, cell, ',')) {
          throw std::invalid_argument("truncated row");
        }
        return cell;
      };
      r.hp = next();
      r.be = next();
      r.policy = next();
      r.cores = parse_cell_unsigned(next());
      r.ct_favoured = parse_cell_bool(next());
      r.hp_alone = parse_cell_double(next());
      r.be_alone = parse_cell_double(next());
      r.hp_ipc = parse_cell_double(next());
      r.be_ipc = parse_cell_double(next());
      r.efu = parse_cell_double(next());
      if (std::getline(ss, cell, ',')) {
        throw std::invalid_argument("trailing columns");
      }
      rows.push_back(std::move(r));
    }
  } catch (const std::exception& e) {
    DICER_WARN << "sweep cache " << path << " is corrupt (" << e.what()
               << " at row " << rows.size() << "); recomputing";
    return {};
  }
  return rows;
}

/// Atomically (re)write the cache (util::write_file_atomic), so an
/// interrupted bench or a concurrent writer never leaves a truncated cache
/// at the real location. A failed write only warns: the rows are already
/// computed and the next run recomputes.
void save_sweep(const std::string& path, const std::string& key,
                const std::vector<SweepRow>& rows) {
  try {
    util::write_file_atomic(path, [&](std::ostream& out) {
      out << "# " << key << "\n";
      out << kSweepHeader << "\n";
      for (const auto& r : rows) {
        out << r.hp << ',' << r.be << ',' << r.policy << ',' << r.cores << ','
            << (r.ct_favoured ? 1 : 0) << ',' << util::fmt(r.hp_alone) << ','
            << util::fmt(r.be_alone) << ',' << util::fmt(r.hp_ipc) << ','
            << util::fmt(r.be_ipc) << ',' << util::fmt(r.efu) << "\n";
      }
    });
  } catch (const std::exception& e) {
    DICER_WARN << "cannot write sweep cache " << path << ": " << e.what();
  }
}

std::unique_ptr<policy::Dicer> make_variant(const std::string& name) {
  policy::DicerConfig cfg;
  if (name == "DICER") return std::make_unique<policy::Dicer>(cfg);
  if (name == "DICER-noBW") return std::make_unique<policy::DicerNoBw>(cfg);
  if (name == "DICER+MBA") return std::make_unique<policy::DicerMba>();
  if (name == "DICER-literal") {
    cfg.resample_cooldown_periods = 0;
    return std::make_unique<policy::Dicer>(cfg);
  }
  if (name == "DICER-noPhase") {
    cfg.phase_threshold = 1e9;
    return std::make_unique<policy::Dicer>(cfg);
  }
  throw std::invalid_argument("unknown variant " + name);
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
  const std::string key = sweep_key(catalog, sample, config);
  const std::size_t total =
      sample.size() * config.policies.size() * config.cores.size();
  if (!cache_path.empty() && !force_recompute) {
    trace::ScopedTimer timer("sweep.load_cache");
    auto rows = load_sweep(cache_path, key);
    if (rows.size() == total) return rows;
    if (!rows.empty()) {
      DICER_WARN << "sweep cache row count mismatch (" << rows.size()
                 << " != " << total << "); recomputing";
    }
  }

  // Every (workload, cores, policy) cell in the canonical order
  // sample x cores x policies: consecutive cells share a workload, so a
  // chunk's lanes share their apps' phase constants.
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
    save_sweep(cache_path, key, rows);
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
  // Workload-major cells: a chunk's lanes share their workload's apps.
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

#include "harness/workloads.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>

#include "harness/solo.hpp"
#include "metrics/metrics.hpp"
#include "policy/baselines.hpp"
#include "util/cache_file.hpp"
#include "util/rng.hpp"

namespace dicer::harness {

std::uint64_t catalog_fingerprint(const sim::AppCatalog& catalog) {
  // Every profile field the simulator reads, so recalibrated catalogs
  // invalidate stale caches.
  util::KeyHasher h;
  h.add(catalog.size());
  for (const auto& a : catalog.profiles()) {
    h.add(a.name).add(a.phases.size());
    for (const auto& ph : a.phases) {
      h.add(ph.instructions).add(ph.cpi_core).add(ph.api).add(ph.wb_ratio);
      h.add(ph.mlp).add(ph.mrc.floor()).add(ph.mrc.components().size());
      for (const auto& c : ph.mrc.components()) {
        h.add(c.weight).add(c.ws_bytes).add(c.shape);
      }
    }
  }
  return h.value();
}

void mix_cache_inputs(util::KeyHasher& h, const sim::AppCatalog& catalog,
                      const ConsolidationConfig& config) {
  const auto& m = config.machine;
  h.add(catalog_fingerprint(catalog)).add(m.num_cores).add(m.freq_hz);
  h.add(m.llc.size_bytes).add(m.llc.ways).add(m.link.capacity_bytes_per_sec);
  h.add(m.quantum_sec).add(m.fixed_point_rounds).add(m.fixed_point_damping);
  h.add(config.min_window_sec).add(config.max_window_sec);
}

namespace {

constexpr const char* kBaselineHeader =
    "hp,be,hp_alone,be_alone,um_hp,um_be,ct_hp,ct_be,um_efu,ct_efu";

util::CacheFile baseline_file(const std::string& path,
                              const sim::AppCatalog& catalog,
                              const ConsolidationConfig& config) {
  util::KeyHasher h;
  mix_cache_inputs(h, catalog, config);
  h.add(config.cores_used);
  return {path, "baseline cache", h.key("dicer-baseline-v5"),
          kBaselineHeader};
}

/// One cache row <-> one entry (see util/cache_file.hpp).
template <class Row, class Entry>
void map_row(Row& row, Entry& e) {
  row.text(e.spec.hp).text(e.spec.be).real(e.hp_alone_ipc);
  row.real(e.be_alone_ipc).real(e.um_hp_ipc).real(e.um_be_ipc);
  row.real(e.ct_hp_ipc).real(e.ct_be_ipc).real(e.um_efu).real(e.ct_efu);
}

}  // namespace

std::optional<BaselineStudy> load_baseline_cache(
    const std::string& path, const sim::AppCatalog& catalog,
    const ConsolidationConfig& config) {
  BaselineStudy study{config, {}};
  const std::size_t rows = catalog.size() * catalog.size();
  study.entries.reserve(rows);
  if (!baseline_file(path, catalog, config)
           .load(rows, [&](util::CacheRowReader& row) {
             map_row(row, study.entries.emplace_back());
           })) {
    return std::nullopt;
  }
  return study;
}

void save_baseline_cache(const std::string& path, const BaselineStudy& study,
                         const sim::AppCatalog& catalog) {
  baseline_file(path, catalog, study.config)
      .save([&](util::CacheRowWriter& row) {
        for (const auto& e : study.entries) {
          map_row(row, e);
          row.end_row();
        }
      });
}

namespace {

double efu_of(double hp_alone, double hp, double be_alone, double be_mean,
              std::size_t n_bes) {
  std::vector<metrics::IpcPair> pairs;
  pairs.push_back({hp_alone, hp});
  for (std::size_t i = 0; i < n_bes; ++i) pairs.push_back({be_alone, be_mean});
  return metrics::effective_utilisation(pairs);
}

}  // namespace

std::size_t BaselineStudy::count_ct_favoured() const {
  std::size_t n = 0;
  for (const auto& e : entries) n += e.ct_favoured() ? 1u : 0u;
  return n;
}

double BaselineStudy::fraction_ct_thwarted() const {
  if (entries.empty()) return 0.0;
  return 1.0 - static_cast<double>(count_ct_favoured()) /
                   static_cast<double>(entries.size());
}

std::vector<WorkloadSpec> all_pairs(const sim::AppCatalog& catalog) {
  std::vector<WorkloadSpec> pairs;
  pairs.reserve(catalog.size() * catalog.size());
  for (const auto& hp : catalog.profiles()) {
    for (const auto& be : catalog.profiles()) {
      pairs.push_back({hp.name, be.name});
    }
  }
  return pairs;
}

BaselineStudy baseline_study(const sim::AppCatalog& catalog,
                             const ConsolidationConfig& config,
                             const std::string& cache_path,
                             bool force_recompute, unsigned jobs) {
  if (!cache_path.empty() && !force_recompute) {
    if (auto cached = load_baseline_cache(cache_path, catalog, config)) {
      return *std::move(cached);
    }
  }

  // Solo IPCs once per app.
  std::map<std::string, double> alone;
  for (const auto& p : catalog.profiles()) {
    alone[p.name] =
        solo_steady_state(p, config.machine.llc.ways, config.machine).ipc;
  }

  // Pair-major cells, UM then CT for each (hp, be).
  BaselineStudy study;
  study.config = config;
  study.entries.reserve(catalog.size() * catalog.size());
  std::vector<GridCell> cells;
  cells.reserve(2 * catalog.size() * catalog.size());
  for (const auto& hp : catalog.profiles()) {
    for (const auto& be : catalog.profiles()) {
      BaselineEntry e;
      e.spec = {hp.name, be.name};
      e.hp_alone_ipc = alone[hp.name];
      e.be_alone_ipc = alone[be.name];
      study.entries.push_back(std::move(e));
      cells.push_back({&hp, &be, config.cores_used});
      cells.push_back({&hp, &be, config.cores_used});
    }
  }
  const std::size_t n_bes = config.cores_used - 1;
  run_consolidation_grid(
      cells,
      [](std::size_t i) -> std::unique_ptr<policy::Policy> {
        if (i % 2 == 0) return std::make_unique<policy::Unmanaged>();
        return std::make_unique<policy::CacheTakeover>();
      },
      [&](std::size_t i, const ConsolidationResult& res,
          const policy::Policy&) {
        BaselineEntry& e = study.entries[i / 2];
        const bool um = i % 2 == 0;
        (um ? e.um_hp_ipc : e.ct_hp_ipc) = res.hp_ipc;
        (um ? e.um_be_ipc : e.ct_be_ipc) = res.be_ipc_mean;
        (um ? e.um_efu : e.ct_efu) = efu_of(e.hp_alone_ipc, res.hp_ipc,
                                            e.be_alone_ipc, res.be_ipc_mean,
                                            n_bes);
      },
      config, jobs, "baseline study");

  if (!cache_path.empty()) save_baseline_cache(cache_path, study, catalog);
  return study;
}

std::vector<BaselineEntry> representative_sample(const BaselineStudy& study,
                                                 std::size_t n_ctf,
                                                 std::size_t n_ctt,
                                                 std::uint64_t seed) {
  std::vector<const BaselineEntry*> ctf, ctt;
  for (const auto& e : study.entries) {
    (e.ct_favoured() ? ctf : ctt).push_back(&e);
  }

  // Stratified pick: sort each class by UM slowdown and take evenly spaced
  // entries, with a seeded jitter inside each stratum so different seeds
  // give different (but still spread) samples.
  auto pick = [seed](std::vector<const BaselineEntry*>& pool,
                     std::size_t want) {
    std::vector<const BaselineEntry*> out;
    if (pool.empty() || want == 0) return out;
    std::sort(pool.begin(), pool.end(),
              [](const BaselineEntry* a, const BaselineEntry* b) {
                if (a->um_slowdown() != b->um_slowdown()) {
                  return a->um_slowdown() < b->um_slowdown();
                }
                return a->spec.label() < b->spec.label();
              });
    util::Xoshiro256 rng(seed ^ pool.size());
    const double stride =
        static_cast<double>(pool.size()) / static_cast<double>(want);
    for (std::size_t i = 0; i < want; ++i) {
      const double base = static_cast<double>(i) * stride;
      const double jitter = rng.uniform() * stride;
      const auto idx = std::min(
          static_cast<std::size_t>(base + jitter), pool.size() - 1);
      out.push_back(pool[idx]);
    }
    // De-duplicate (possible when want ~ pool size) keeping order.
    std::vector<const BaselineEntry*> uniq;
    for (const auto* e : out) {
      if (uniq.empty() || std::find(uniq.begin(), uniq.end(), e) == uniq.end()) {
        uniq.push_back(e);
      }
    }
    // Top up with unused neighbours if deduplication lost entries.
    for (const auto* e : pool) {
      if (uniq.size() >= want) break;
      if (std::find(uniq.begin(), uniq.end(), e) == uniq.end()) {
        uniq.push_back(e);
      }
    }
    return uniq;
  };

  std::vector<BaselineEntry> sample;
  for (const auto* e : pick(ctf, n_ctf)) sample.push_back(*e);
  for (const auto* e : pick(ctt, n_ctt)) sample.push_back(*e);
  return sample;
}

std::string default_cache_dir() {
  if (const char* dir = std::getenv("DICER_CACHE_DIR")) return dir;
  return ".";
}

}  // namespace dicer::harness

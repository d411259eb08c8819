#include "harness/workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "harness/solo.hpp"
#include "metrics/metrics.hpp"
#include "policy/baselines.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace dicer::harness {

std::uint64_t catalog_fingerprint(const sim::AppCatalog& catalog) {
  // Content hash so recalibrated catalogs invalidate stale caches.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h ^= bits;
    h *= 0x100000001b3ULL;
  };
  for (const auto& a : catalog.profiles()) {
    for (char c : a.name) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;
    }
    mix(a.total_instructions());
    mix(a.mean_api());
    for (const auto& ph : a.phases) {
      mix(ph.cpi_core);
      mix(ph.mlp);
      mix(ph.mrc.floor());
      mix(ph.mrc.footprint_bytes());
    }
  }
  return h;
}

namespace {

/// Cache-file header key: invalidates the cache when the model geometry or
/// catalog changes.
std::string cache_key(const sim::AppCatalog& catalog,
                      const ConsolidationConfig& config) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "dicer-baseline-v4:%016llx:%u:%u:%llu:%g:%g:%g:%g",
                static_cast<unsigned long long>(catalog_fingerprint(catalog)),
                config.cores_used, config.machine.llc.ways,
                static_cast<unsigned long long>(config.machine.llc.size_bytes),
                config.machine.link.capacity_bytes_per_sec,
                config.machine.quantum_sec, config.min_window_sec,
                config.max_window_sec);
  return buf;
}

}  // namespace

std::optional<BaselineStudy> load_baseline_cache(
    const std::string& path, const sim::AppCatalog& catalog,
    const ConsolidationConfig& config) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != "# " + cache_key(catalog, config)) {
    DICER_INFO << "baseline cache " << path << " is stale; recomputing";
    return std::nullopt;
  }
  std::getline(in, line);  // column header
  BaselineStudy study;
  study.config = config;
  // Per-row validation: field count and full numeric parses are checked
  // cell by cell, and any defect reports file, line and column before the
  // loader falls back to recomputing — a malformed row must never escape
  // as an uncaught std::stod exception or a silent garbage value.
  std::size_t lineno = 2;  // 1-based; key + header already consumed
  try {
    while (std::getline(in, line)) {
      ++lineno;
      std::istringstream ss(line);
      BaselineEntry e;
      std::string cell;
      unsigned column = 0;
      auto next = [&]() {
        ++column;
        if (!std::getline(ss, cell, ',')) {
          throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                   ": truncated row (" +
                                   std::to_string(column - 1) +
                                   " of 10 fields)");
        }
        return cell;
      };
      auto next_double = [&]() {
        const std::string& c = next();
        std::size_t pos = 0;
        double v = 0.0;
        bool ok = true;
        try {
          v = std::stod(c, &pos);
        } catch (const std::exception&) {
          ok = false;
        }
        if (!ok || pos != c.size()) {
          throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                   ": column " + std::to_string(column) +
                                   ": bad number '" + c + "'");
        }
        return v;
      };
      e.spec.hp = next();
      e.spec.be = next();
      e.hp_alone_ipc = next_double();
      e.be_alone_ipc = next_double();
      e.um_hp_ipc = next_double();
      e.um_be_ipc = next_double();
      e.ct_hp_ipc = next_double();
      e.ct_be_ipc = next_double();
      e.um_efu = next_double();
      e.ct_efu = next_double();
      if (std::getline(ss, cell, ',')) {
        throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                 ": trailing columns after field 10");
      }
      study.entries.push_back(std::move(e));
    }
  } catch (const std::exception& e) {
    DICER_WARN << "baseline cache is malformed (" << e.what()
               << "); recomputing";
    return std::nullopt;
  }
  if (study.entries.size() != catalog.size() * catalog.size()) {
    DICER_WARN << "baseline cache " << path << " has wrong row count";
    return std::nullopt;
  }
  return study;
}

void save_baseline_cache(const std::string& path, const BaselineStudy& study,
                         const sim::AppCatalog& catalog) {
  try {
    util::write_file_atomic(path, [&](std::ostream& out) {
      out << "# " << cache_key(catalog, study.config) << "\n";
      out << "hp,be,hp_alone,be_alone,um_hp,um_be,ct_hp,ct_be,um_efu,ct_efu\n";
      for (const auto& e : study.entries) {
        out << e.spec.hp << ',' << e.spec.be << ','
            << util::fmt(e.hp_alone_ipc) << ',' << util::fmt(e.be_alone_ipc)
            << ',' << util::fmt(e.um_hp_ipc) << ',' << util::fmt(e.um_be_ipc)
            << ',' << util::fmt(e.ct_hp_ipc) << ',' << util::fmt(e.ct_be_ipc)
            << ',' << util::fmt(e.um_efu) << ',' << util::fmt(e.ct_efu)
            << "\n";
      }
    });
  } catch (const std::exception& e) {
    DICER_WARN << "cannot write baseline cache " << path << ": " << e.what();
  }
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

  // Pair-major cells, UM then CT for each (hp, be): a chunk's lanes share
  // one HP row, so the batch's phase table dedups across them.
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

#include "sim/core/catalog.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace dicer::sim {

namespace {

constexpr double MB = 1024.0 * 1024.0;
constexpr double G = 1e9;

/// Deterministic per-input jitter: multiplies a base value by
/// exp(sigma * N(0,1)) drawn from a stream keyed on (seed, name).
class Jitter {
 public:
  Jitter(std::uint64_t seed, const std::string& name) : rng_(derive(seed, name)) {}

  double scale(double base, double sigma) { return base * std::exp(sigma * rng_.normal()); }

 private:
  static std::uint64_t derive(std::uint64_t seed, const std::string& name) {
    util::SplitMix64 sm(seed);
    std::uint64_t h = sm.next();
    for (char c : name) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;
    }
    return h;
  }
  util::Xoshiro256 rng_;
};

AppPhase phase(std::string name, double instructions, double cpi_core,
               double api, MissRatioCurve mrc, double wb, double mlp) {
  AppPhase p;
  p.name = std::move(name);
  p.instructions = instructions;
  p.cpi_core = cpi_core;
  p.api = api;
  // Long-tail reuse: real SPEC/PARSEC codes keep improving slightly all
  // the way to the full LLC (the paper's Fig 2 has half the applications
  // needing more than 6 ways for the last percent of performance). Give
  // every non-streaming curve a thin far component so the last few ways
  // still buy something.
  if (api >= 0.005 && mrc.floor() < 0.3 && mrc.ceiling() <= 0.93) {
    auto components = mrc.components();
    components.push_back({0.11, 20.0 * MB, 2.5});
    p.mrc = MissRatioCurve(mrc.floor(), std::move(components));
  } else {
    p.mrc = std::move(mrc);
  }
  p.wb_ratio = wb;
  p.mlp = mlp;
  return p;
}

// ---------------------------------------------------------------------------
// Streaming applications: bandwidth-hungry, MRC dominated by the floor.
// ---------------------------------------------------------------------------

AppProfile make_lbm() {
  AppProfile a{.name = "lbm1", .suite = "SPEC CPU 2006",
               .app_class = AppClass::kStreaming, .phases = {}};
  a.phases = {
      phase("init", 2e9, 0.55, 0.010, MissRatioCurve::streaming(0.80), 0.5, 5.0),
      phase("collide-stream", 26e9, 0.50, 0.030,
            MissRatioCurve::streaming(0.92), 0.62, 6.0),
  };
  return a;
}

AppProfile make_libquantum() {
  AppProfile a{.name = "libquantum1", .suite = "SPEC CPU 2006",
               .app_class = AppClass::kStreaming, .phases = {}};
  a.phases = {
      phase("gates", 30e9, 0.45, 0.022, MissRatioCurve::streaming(0.94), 0.30,
            7.0),
      phase("toffoli", 12e9, 0.48, 0.026, MissRatioCurve::streaming(0.95),
            0.32, 7.0),
  };
  return a;
}

AppProfile make_milc() {
  AppProfile a{.name = "milc1", .suite = "SPEC CPU 2006",
               .app_class = AppClass::kStreaming, .phases = {}};
  // milc keeps a small su3 working set but sweeps lattices much larger than
  // the LLC: a thin knee below one way plus a high floor. This is the Fig-3
  // HP: extra ways beyond ~2 buy it nothing, while its bandwidth appetite
  // makes it suffer when BEs saturate the link.
  a.phases = {
      phase("warm", 3e9, 0.60, 0.014,
            MissRatioCurve::single_knee(0.18, 0.9 * MB, 0.72, 1.5), 0.42, 4.0),
      phase("cg-sweep", 24e9, 0.58, 0.020,
            MissRatioCurve::single_knee(0.14, 1.0 * MB, 0.80, 1.5), 0.45, 4.5),
  };
  return a;
}

AppProfile make_leslie3d() {
  AppProfile a{.name = "leslie3d1", .suite = "SPEC CPU 2006",
               .app_class = AppClass::kStreaming, .phases = {}};
  a.phases = {
      phase("solve", 28e9, 0.52, 0.018,
            MissRatioCurve::single_knee(0.15, 2.0 * MB, 0.74, 1.5), 0.5, 4.5),
      phase("boundary", 6e9, 0.55, 0.012,
            MissRatioCurve::single_knee(0.20, 1.5 * MB, 0.60, 1.5), 0.45, 4.0),
  };
  return a;
}

AppProfile make_bwaves() {
  AppProfile a{.name = "bwaves1", .suite = "SPEC CPU 2006",
               .app_class = AppClass::kStreaming, .phases = {}};
  a.phases = {
      phase("mgrid", 30e9, 0.50, 0.019,
            MissRatioCurve::single_knee(0.12, 2.5 * MB, 0.78, 1.5), 0.42, 5.0),
  };
  return a;
}

AppProfile make_gemsfdtd() {
  AppProfile a{.name = "GemsFDTD1", .suite = "SPEC CPU 2006",
               .app_class = AppClass::kStreaming, .phases = {}};
  // A real init/solve phase structure: the solver is much more
  // bandwidth-hungry than setup — exercises DICER's phase detector.
  a.phases = {
      phase("setup", 5e9, 0.70, 0.006,
            MissRatioCurve::single_knee(0.30, 3.0 * MB, 0.25, 1.5), 0.35, 3.0),
      phase("update-H", 14e9, 0.55, 0.020,
            MissRatioCurve::single_knee(0.10, 2.0 * MB, 0.78, 1.5), 0.5, 4.0),
      phase("update-E", 14e9, 0.55, 0.022,
            MissRatioCurve::single_knee(0.10, 2.0 * MB, 0.80, 1.5), 0.5, 4.0),
  };
  return a;
}

AppProfile make_streamcluster() {
  AppProfile a{.name = "streamcluster1", .suite = "PARSEC 3.0",
               .app_class = AppClass::kStreaming, .phases = {}};
  a.phases = {
      phase("kmedian", 22e9, 0.60, 0.019,
            MissRatioCurve::single_knee(0.18, 1.2 * MB, 0.70, 1.5), 0.2, 4.0),
      phase("recluster", 8e9, 0.62, 0.021,
            MissRatioCurve::single_knee(0.15, 1.0 * MB, 0.75, 1.5), 0.2, 4.0),
  };
  return a;
}

// ---------------------------------------------------------------------------
// Cache-hungry applications: deep knees, often latency-bound (low MLP).
// ---------------------------------------------------------------------------

AppProfile make_mcf() {
  AppProfile a{.name = "mcf1", .suite = "SPEC CPU 2006",
               .app_class = AppClass::kCacheHungry, .phases = {}};
  // Pointer chasing over a network simplex structure far larger than the
  // LLC; a mid-size knee plus a very large one that never fully fits.
  a.phases = {
      phase("simplex", 16e9, 0.80, 0.024,
            MissRatioCurve::double_knee(0.28, 3.5 * MB, 0.42, 48.0 * MB, 0.02),
            0.30, 1.7),
      phase("pricing", 8e9, 0.75, 0.028,
            MissRatioCurve::double_knee(0.25, 2.5 * MB, 0.45, 40.0 * MB, 0.02),
            0.30, 1.6),
  };
  return a;
}

AppProfile make_omnetpp() {
  AppProfile a{.name = "omnetpp1", .suite = "SPEC CPU 2006",
               .app_class = AppClass::kCacheHungry, .phases = {}};
  a.phases = {
      phase("events", 30e9, 0.75, 0.014,
            MissRatioCurve::double_knee(0.45, 6.0 * MB, 0.25, 30.0 * MB, 0.03),
            0.30, 1.6),
  };
  return a;
}

AppProfile make_xalan() {
  AppProfile a{.name = "Xalan1", .suite = "SPEC CPU 2006",
               .app_class = AppClass::kCacheHungry, .phases = {}};
  a.phases = {
      phase("transform", 34e9, 0.65, 0.012,
            MissRatioCurve::double_knee(0.50, 4.0 * MB, 0.22, 16.0 * MB, 0.03),
            0.25, 1.9),
  };
  return a;
}

AppProfile make_canneal() {
  AppProfile a{.name = "canneal1", .suite = "PARSEC 3.0",
               .app_class = AppClass::kCacheHungry, .phases = {}};
  a.phases = {
      phase("anneal", 24e9, 0.70, 0.015,
            MissRatioCurve::double_knee(0.20, 2.0 * MB, 0.45, 64.0 * MB, 0.08),
            0.25, 1.5),
  };
  return a;
}

AppProfile make_zeusmp() {
  AppProfile a{.name = "zeusmp1", .suite = "SPEC CPU 2006",
               .app_class = AppClass::kCacheHungry, .phases = {}};
  a.phases = {
      phase("hydro", 30e9, 0.58, 0.011,
            MissRatioCurve::double_knee(0.35, 3.0 * MB, 0.35, 12.0 * MB, 0.05),
            0.40, 3.0),
  };
  return a;
}

AppProfile make_sphinx() {
  AppProfile a{.name = "sphinx1", .suite = "SPEC CPU 2006",
               .app_class = AppClass::kCacheHungry, .phases = {}};
  a.phases = {
      phase("gmm", 26e9, 0.60, 0.010,
            MissRatioCurve::double_knee(0.40, 2.5 * MB, 0.35, 10.0 * MB, 0.04),
            0.20, 2.5),
      phase("search", 8e9, 0.68, 0.005,
            MissRatioCurve::single_knee(0.55, 3.0 * MB, 0.04, 1.5), 0.20, 2.0),
  };
  return a;
}

// ---------------------------------------------------------------------------
// Cache-friendly families (multi-input) and singles.
// ---------------------------------------------------------------------------

AppProfile make_gcc(int input, std::uint64_t seed) {
  const std::string name = "gcc_base" + std::to_string(input);
  Jitter j(seed, name);
  AppProfile a{.name = name, .suite = "SPEC CPU 2006",
               .app_class = AppClass::kCacheFriendly, .phases = {}};
  // Distinct reference inputs stress different pass mixes: working sets
  // from ~1.5 MB (small units) to ~7 MB (big translation units).
  const double ws = j.scale(1.5 * MB + 0.6 * MB * input, 0.10);
  const double api = j.scale(0.0090, 0.12);
  const double instr = j.scale(34e9, 0.10);
  a.phases = {
      phase("parse", instr * 0.3, 0.62, api * 0.8,
            MissRatioCurve::single_knee(0.55, ws * 0.6, 0.03, 1.5), 0.30, 2.4),
      phase("optimize", instr * 0.5, 0.58, api,
            MissRatioCurve::single_knee(0.60, ws, 0.035, 1.5), 0.30, 2.4),
      phase("emit", instr * 0.2, 0.60, api * 1.15,
            MissRatioCurve::single_knee(0.58, ws * 0.8, 0.03, 1.5), 0.35, 2.4),
  };
  return a;
}

AppProfile make_bzip2(int input, std::uint64_t seed) {
  const std::string name = "bzip2" + std::to_string(input);
  Jitter j(seed, name);
  AppProfile a{.name = name, .suite = "SPEC CPU 2006",
               .app_class = AppClass::kCacheFriendly, .phases = {}};
  const double ws = j.scale(1.2 * MB + 0.4 * MB * input, 0.10);
  const double api = j.scale(0.0070, 0.12);
  const double instr = j.scale(30e9, 0.10);
  // Compress / decompress alternation: the decompress phase has a smaller
  // working set and lower api.
  a.phases = {
      phase("compress", instr * 0.6, 0.66, api,
            MissRatioCurve::single_knee(0.50, ws, 0.04, 1.5), 0.30, 2.2),
      phase("decompress", instr * 0.4, 0.60, api * 0.7,
            MissRatioCurve::single_knee(0.45, ws * 0.5, 0.03, 1.5), 0.30, 2.2),
  };
  return a;
}

AppProfile make_soplex(int input, std::uint64_t seed) {
  const std::string name = "soplex" + std::to_string(input);
  Jitter j(seed, name);
  AppProfile a{.name = name, .suite = "SPEC CPU 2006",
               .app_class = AppClass::kCacheHungry, .phases = {}};
  const double ws = j.scale(input == 1 ? 5.0 * MB : 9.0 * MB, 0.10);
  const double api = j.scale(0.013, 0.10);
  a.phases = {
      phase("factor", 12e9, 0.62, api,
            MissRatioCurve::double_knee(0.35, ws * 0.4, 0.30, ws, 0.06), 0.35,
            2.6),
      phase("iterate", 16e9, 0.60, api * 1.1,
            MissRatioCurve::double_knee(0.30, ws * 0.4, 0.35, ws, 0.06), 0.35,
            2.6),
  };
  return a;
}

AppProfile make_astar(int input, std::uint64_t seed) {
  const std::string name = "astar" + std::to_string(input);
  Jitter j(seed, name);
  // input 1 (rivers) is cache-friendly; inputs 2-3 (BigLakes-like) hungrier.
  const bool big = input >= 2;
  AppProfile a{.name = name, .suite = "SPEC CPU 2006",
               .app_class = big ? AppClass::kCacheHungry
                                : AppClass::kCacheFriendly,
               .phases = {}};
  const double ws = j.scale(big ? 8.0 * MB : 2.2 * MB, 0.10);
  const double api = j.scale(big ? 0.011 : 0.007, 0.10);
  a.phases = {
      phase("pathfind", 26e9, 0.72, api,
            MissRatioCurve::double_knee(0.35, ws * 0.5, 0.30, ws, 0.04), 0.25,
            1.9),
  };
  return a;
}

AppProfile make_dedup() {
  AppProfile a{.name = "dedup1", .suite = "PARSEC 3.0",
               .app_class = AppClass::kCacheFriendly, .phases = {}};
  a.phases = {
      phase("chunk", 10e9, 0.60, 0.008,
            MissRatioCurve::single_knee(0.55, 3.0 * MB, 0.05, 1.5), 0.30, 2.5),
      phase("compress", 14e9, 0.62, 0.006,
            MissRatioCurve::single_knee(0.50, 2.0 * MB, 0.04, 1.5), 0.30, 2.5),
  };
  return a;
}

AppProfile make_fluidanimate() {
  AppProfile a{.name = "fluidanimate1", .suite = "PARSEC 3.0",
               .app_class = AppClass::kCacheFriendly, .phases = {}};
  a.phases = {
      phase("forces", 24e9, 0.58, 0.0060,
            MissRatioCurve::single_knee(0.52, 2.8 * MB, 0.05, 1.5), 0.35, 2.8),
  };
  return a;
}

AppProfile make_ferret() {
  AppProfile a{.name = "ferret1", .suite = "PARSEC 3.0",
               .app_class = AppClass::kCacheFriendly, .phases = {}};
  a.phases = {
      phase("rank", 26e9, 0.64, 0.0070,
            MissRatioCurve::double_knee(0.40, 2.0 * MB, 0.18, 6.0 * MB, 0.04),
            0.25, 2.3),
  };
  return a;
}

// ---------------------------------------------------------------------------
// Compute-bound families and singles: tiny api, insensitive to the LLC.
// ---------------------------------------------------------------------------

AppProfile compute_bound(std::string name, std::string suite, double cpi,
                         double api, double ws, double instr,
                         double floor = 0.03) {
  AppProfile a{.name = std::move(name), .suite = std::move(suite),
               .app_class = AppClass::kComputeBound, .phases = {}};
  a.phases = {
      phase("main", instr, cpi, api,
            MissRatioCurve::single_knee(std::max(0.0, 0.8 - floor), ws, floor,
                                        2.0),
            0.2, 2.0),
  };
  return a;
}

AppProfile make_gobmk(int input, std::uint64_t seed) {
  const std::string name = "gobmk" + std::to_string(input);
  Jitter j(seed, name);
  auto a = compute_bound(name, "SPEC CPU 2006", j.scale(0.66, 0.06),
                         j.scale(0.0030, 0.12), j.scale(2.2 * MB, 0.10),
                         j.scale(40e9, 0.10));
  return a;
}

AppProfile make_hmmer(int input, std::uint64_t seed) {
  const std::string name = "hmmer" + std::to_string(input);
  Jitter j(seed, name);
  return compute_bound(name, "SPEC CPU 2006", j.scale(0.45, 0.05),
                       j.scale(0.0016, 0.12), j.scale(1.4 * MB, 0.10),
                       j.scale(52e9, 0.10));
}

AppProfile make_h264ref(int input, std::uint64_t seed) {
  const std::string name = "h264ref" + std::to_string(input);
  Jitter j(seed, name);
  AppProfile a{.name = name, .suite = "SPEC CPU 2006",
               .app_class = AppClass::kComputeBound, .phases = {}};
  const double api = j.scale(0.0032, 0.12);
  const double ws = j.scale(2.4 * MB, 0.10);
  a.phases = {
      phase("me", j.scale(28e9, 0.08), 0.52, api,
            MissRatioCurve::single_knee(0.70, ws, 0.015, 1.5), 0.25, 2.2),
      phase("deblock", j.scale(12e9, 0.08), 0.55, api * 1.3,
            MissRatioCurve::single_knee(0.65, ws * 1.3, 0.02, 1.5), 0.25, 2.2),
  };
  return a;
}

AppProfile make_perlbench(int input, std::uint64_t seed) {
  const std::string name = "perlbench" + std::to_string(input);
  Jitter j(seed, name);
  return compute_bound(name, "SPEC CPU 2006", j.scale(0.58, 0.05),
                       j.scale(0.0040, 0.12), j.scale(3.0 * MB, 0.12),
                       j.scale(42e9, 0.10), 0.015);
}

}  // namespace

AppCatalog::AppCatalog(std::uint64_t seed) {
  profiles_.reserve(59);

  // --- SPEC CPU 2006: 8 multi-input applications (33 workloads) ---
  for (int i = 1; i <= 9; ++i) profiles_.push_back(make_gcc(i, seed));
  for (int i = 1; i <= 6; ++i) profiles_.push_back(make_bzip2(i, seed));
  for (int i = 1; i <= 5; ++i) profiles_.push_back(make_gobmk(i, seed));
  for (int i = 1; i <= 3; ++i) profiles_.push_back(make_h264ref(i, seed));
  for (int i = 1; i <= 3; ++i) profiles_.push_back(make_perlbench(i, seed));
  for (int i = 1; i <= 2; ++i) profiles_.push_back(make_hmmer(i, seed));
  for (int i = 1; i <= 2; ++i) profiles_.push_back(make_soplex(i, seed));
  for (int i = 1; i <= 3; ++i) profiles_.push_back(make_astar(i, seed));

  // --- SPEC CPU 2006: 17 single-input applications ---
  profiles_.push_back(make_mcf());
  profiles_.push_back(make_milc());
  profiles_.push_back(make_libquantum());
  profiles_.push_back(make_lbm());
  profiles_.push_back(make_leslie3d());
  profiles_.push_back(make_bwaves());
  profiles_.push_back(make_gemsfdtd());
  profiles_.push_back(make_omnetpp());
  profiles_.push_back(make_xalan());
  profiles_.push_back(make_zeusmp());
  profiles_.push_back(make_sphinx());
  // tonto/namd/povray/gromacs/calculix/sjeng: classic SPEC compute kernels.
  profiles_.push_back(compute_bound("tonto1", "SPEC CPU 2006", 0.60, 0.0034,
                                    2.6 * MB, 40e9));
  profiles_.push_back(compute_bound("namd1", "SPEC CPU 2006", 0.44, 0.0014,
                                    1.6 * MB, 56e9));
  profiles_.push_back(compute_bound("povray1", "SPEC CPU 2006", 0.50, 0.0010,
                                    1.2 * MB, 50e9));
  profiles_.push_back(compute_bound("gromacs1", "SPEC CPU 2006", 0.52, 0.0018,
                                    1.8 * MB, 48e9));
  profiles_.push_back(compute_bound("calculix1", "SPEC CPU 2006", 0.55, 0.0024,
                                    2.2 * MB, 46e9));
  profiles_.push_back(compute_bound("sjeng1", "SPEC CPU 2006", 0.68, 0.0030,
                                    2.6 * MB, 38e9));

  // --- PARSEC 3.0: 9 serial applications ---
  profiles_.push_back(make_streamcluster());
  profiles_.push_back(make_canneal());
  profiles_.push_back(make_dedup());
  profiles_.push_back(make_fluidanimate());
  profiles_.push_back(make_ferret());
  profiles_.push_back(compute_bound("blackscholes1", "PARSEC 3.0", 0.48,
                                    0.0008, 1.0 * MB, 50e9));
  profiles_.push_back(compute_bound("swaptions1", "PARSEC 3.0", 0.52, 0.0007,
                                    0.9 * MB, 48e9));
  profiles_.push_back(compute_bound("bodytrack1", "PARSEC 3.0", 0.56, 0.0026,
                                    2.4 * MB, 42e9));
  profiles_.push_back(compute_bound("freqmine1", "PARSEC 3.0", 0.60, 0.0044,
                                    3.2 * MB, 40e9, 0.04));

  if (profiles_.size() != 59) {
    throw std::logic_error("AppCatalog: expected 59 workloads, got " +
                           std::to_string(profiles_.size()));
  }
  // Guard against duplicate names (lookup relies on uniqueness).
  auto sorted = names();
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::logic_error("AppCatalog: duplicate workload name");
  }
}

AppCatalog::AppCatalog(std::vector<AppProfile> profiles) {
  for (auto& p : profiles) add(std::move(p));
}

void AppCatalog::add(AppProfile profile) {
  if (profile.name.empty() || profile.phases.empty()) {
    throw std::invalid_argument("AppCatalog::add: empty profile");
  }
  if (contains(profile.name)) {
    throw std::invalid_argument("AppCatalog::add: duplicate workload name " +
                                profile.name);
  }
  profiles_.push_back(std::move(profile));
}

const AppProfile& AppCatalog::by_name(const std::string& name) const {
  for (const auto& p : profiles_) {
    if (p.name == name) return p;
  }
  throw std::out_of_range("AppCatalog: no workload named " + name);
}

bool AppCatalog::contains(const std::string& name) const noexcept {
  for (const auto& p : profiles_) {
    if (p.name == name) return true;
  }
  return false;
}

std::vector<std::string> AppCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(profiles_.size());
  for (const auto& p : profiles_) out.push_back(p.name);
  return out;
}

const AppCatalog& default_catalog() {
  static const AppCatalog catalog;
  return catalog;
}

}  // namespace dicer::sim

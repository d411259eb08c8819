#include "sim/machine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "util/cache_file.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace dicer::sim {

void hash_config(util::KeyHasher& h, const MachineConfig& config) {
  h.add(config.num_cores).add(config.freq_hz);
  h.add(config.llc.size_bytes).add(config.llc.ways).add(config.llc.line_bytes);
  const MemoryLinkConfig& link = config.link;
  h.add(link.capacity_bytes_per_sec).add(link.base_latency_cycles);
  h.add(link.congestion_linear).add(link.congestion_amplitude);
  h.add(link.congestion_exponent);
  h.add(config.llc_hit_latency_cycles).add(config.uncore_contention_coeff);
  h.add(config.uncore_access_ref_per_sec).add(config.mlp_squeeze);
  h.add(config.quantum_sec).add(config.fixed_point_rounds);
  h.add(config.occupancy.max_characteristic_time_sec);
}

std::uint64_t MachineConfig::quanta(double sec) const noexcept {
  const double q = std::round(sec / quantum_sec);
  if (!(q >= 1.0)) return 1;
  return q < 0x1p63 ? static_cast<std::uint64_t>(q) : std::uint64_t{1} << 63;
}

void PhaseConst::build(const AppPhase& ph, double* shares) {
  phase = &ph;
  sf = ph.mrc.stream_fraction();
  one_minus_sf = 1.0 - sf;
  floor_m = ph.mrc.floor();
  span_m = std::max(ph.mrc.ceiling() - floor_m, 1e-9);
  const auto& comps = ph.mrc.components();
  double wsum = 0.0;
  for (const auto& c : comps) wsum += c.weight;
  wfrac = shares;
  nfrac = wsum > 0.0 ? comps.size() : 0;
  for (std::size_t j = 0; j < nfrac; ++j) shares[j] = comps[j].weight / wsum;
  memo_occ = -1.0;
  memo_miss = 1.0;
  memo_slope = 0.0;
}

namespace {

/// Solve a * x = b in place by Gaussian elimination with partial pivoting:
/// `a` is row-major n x n and is destroyed, `b` becomes x. False if a
/// pivot vanishes (or is not a number).
bool lu_solve(std::size_t n, double* a, double* b) {
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t p = c;
    for (std::size_t r = c + 1; r < n; ++r) {
      if (std::fabs(a[r * n + c]) > std::fabs(a[p * n + c])) p = r;
    }
    if (!(a[p * n + c] != 0.0)) return false;
    if (p != c) {
      std::swap_ranges(a + c * n + c, a + c * n + n, a + p * n + c);
      std::swap(b[c], b[p]);
    }
    const double pivot = a[c * n + c];
    for (std::size_t r = c + 1; r < n; ++r) {
      const double f = a[r * n + c] / pivot;
      if (f == 0.0) continue;
      for (std::size_t k = c + 1; k < n; ++k) a[r * n + k] -= f * a[c * n + k];
      b[r] -= f * b[c];
    }
  }
  for (std::size_t c = n; c-- > 0;) {
    double v = b[c];
    for (std::size_t k = c + 1; k < n; ++k) v -= a[c * n + k] * b[k];
    b[c] = v / a[c * n + c];
  }
  return true;
}

}  // namespace

void Machine::evaluate(double* target) {
  auto& s = scratch_;
  const std::size_t n = s.n;
  const double freq = config_.freq_hz;
  const double line = config_.llc.line_bytes;

  // 1. Occupancy under current IPS estimates (Che working-set model).
  //    Each MRC component becomes a reuse component whose touch rate is
  //    proportional to its miss-mass weight. The slots' components lie
  //    back to back in s.reuse, which attach sized for the most any of
  //    their phases has.
  ReuseComponent* reuse = s.reuse;
  for (std::size_t i = 0; i < n; ++i) {
    const AppPhase& ph = *s.phase[i];
    const PhaseConst& pc = s.pc[i];
    const double touch = ph.api * s.ips[i] * line;
    const auto& comps = ph.mrc.components();
    for (std::size_t j = 0; j < pc.nfrac; ++j) {
      reuse[j].rate_bytes_per_sec = touch * pc.one_minus_sf * pc.wfrac[j];
      reuse[j].footprint_bytes = comps[j].ws_bytes;
    }
    s.cache_demand[i] = {{reuse, pc.nfrac}, touch * pc.sf};
    reuse += pc.nfrac;
  }
  solve_occupancy({s.regions, s.num_regions}, {s.cache_demand, n},
                  config_.occupancy, s.occupancy, {s.occ, n});

  // 2. Miss ratios (and their slopes, for the Jacobian) and bandwidth
  //    demand. Occupancies repeat across rounds/quanta in steady state, so
  //    each core memoises its last evaluation; neighbours running the same
  //    phase at the same occupancy (a consolidation's identical BEs) share
  //    one evaluation.
  for (std::size_t i = 0; i < n; ++i) {
    PhaseConst& pc = s.pc[i];
    if (s.occ[i] != pc.memo_occ) {
      pc.memo_occ = s.occ[i];
      if (i > 0 && s.phase[i] == s.phase[i - 1] && s.occ[i] == s.occ[i - 1]) {
        pc.memo_miss = s.miss[i - 1];
        pc.memo_slope = s.miss_slope[i - 1];
      } else {
        pc.memo_miss = s.phase[i]->mrc.miss_and_slope(s.occ[i], pc.memo_slope);
      }
    }
    s.miss[i] = pc.memo_miss;
    s.miss_slope[i] = pc.memo_slope;
    s.demand[i] = s.phase[i]->api * s.miss[i] * s.ips[i] * line *
                  (1.0 + s.phase[i]->wb_ratio);
  }
  link_.arbitrate_into({s.demand, n}, {s.achieved, n}, s.arb);

  // 3. New IPC estimates under the arbitrated latency; bandwidth cap when
  //    the link is oversubscribed. The LLC hit path is shared too: ring /
  //    LLC-port pressure from everyone's access rate inflates it.
  double total_accesses = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total_accesses += s.phase[i]->api * s.ips[i];
  }
  const double hit_latency =
      config_.llc_hit_latency_cycles *
      (1.0 + config_.uncore_contention_coeff *
                 std::sqrt(std::min(
                     total_accesses / config_.uncore_access_ref_per_sec, 1.0)));
  for (std::size_t i = 0; i < n; ++i) {
    const AppPhase& ph = *s.phase[i];
    const PhaseConst& pc = s.pc[i];
    // Cache starvation serialises reuse misses: degrade MLP with the
    // excess miss ratio above the app's best case.
    const double excess =
        std::clamp((s.miss[i] - pc.floor_m) / pc.span_m, 0.0, 1.0);
    const double mlp_eff = ph.mlp * (1.0 - config_.mlp_squeeze * excess);
    // An MBA throttle delays a core's memory requests: its exposed memory
    // latency stretches by 1/throttle, and its demand falls as its IPS
    // falls — the same route real MBA takes effect through.
    const double cpi =
        ph.cpi_core +
        ph.api * ((1.0 - s.miss[i]) * hit_latency +
                  s.miss[i] * s.arb.effective_latency_cycles /
                      (mlp_eff * cores_[s.active[i]].mem_throttle));
    target[i] = freq / cpi;
  }
}

std::size_t Machine::jacobian(const double* target, double* diag, double* u,
                              double* v) {
  // F_i = freq / cpi_i with
  //   cpi_i = cpi_core + api_i ((1 - m_i) H + m_i L / (mlp_eff_i theta_i)),
  // so dF_i/dx_k = -(F_i^2 / freq) dcpi_i/dx_k, and cpi_i moves through
  // three channels: its own miss ratio m_i (directly and through the MLP
  // squeeze), the shared hit latency H (through the total access rate),
  // and the shared link latency L (through rho, which every core's demand
  // feeds, misses included). Every rate of app k is proportional to x_k,
  // so dm_i/dx_k = slope_i * sens_ik / x_k with sens the occupancy model's
  // sensitivity: a diagonal plus one rank-one term per filling region
  // (OccupancyScratch). Hence J = D + U V^T, one column pair per rank-one
  // term.
  auto& s = scratch_;
  const std::size_t n = s.n;
  const double line = config_.llc.line_bytes;
  const double capacity = link_.config().capacity_bytes_per_sec;

  // Written for the n active slots before they are read; only `own`
  // accumulates.
  std::array<double, kMaxCores> inv_x, rho_per_miss, by_occ, by_access,
      by_rho, own, drho;
  std::fill_n(own.data(), n, 0.0);
  double total_accesses = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const AppPhase& ph = *s.phase[k];
    inv_x[k] = 1.0 / s.ips[k];
    rho_per_miss[k] = ph.api * line * (1.0 + ph.wb_ratio) / capacity;
    drho[k] = rho_per_miss[k] * s.miss[k];
    total_accesses += ph.api * s.ips[k];
  }

  // dH/d(total accesses): the square-root rise, flat once saturated.
  const double ref = config_.uncore_access_ref_per_sec;
  const double load = total_accesses / ref;
  const double hit_latency =
      config_.llc_hit_latency_cycles *
      (1.0 + config_.uncore_contention_coeff * std::sqrt(std::min(load, 1.0)));
  const double dhit = load > 0.0 && load < 1.0
                          ? config_.llc_hit_latency_cycles *
                                config_.uncore_contention_coeff * 0.5 /
                                (std::sqrt(load) * ref)
                          : 0.0;
  const double mem_latency = s.arb.effective_latency_cycles;
  const double dmem = link_.latency_slope_at(s.arb.raw_utilisation);

  // dF_i by channel: per unit sens_ik / x_k (through m_i), per access/s,
  // per unit rho.
  for (std::size_t i = 0; i < n; ++i) {
    const AppPhase& ph = *s.phase[i];
    const PhaseConst& pc = s.pc[i];
    const double m = s.miss[i];
    const double excess = (m - pc.floor_m) / pc.span_m;
    const double mlp_eff =
        ph.mlp * (1.0 - config_.mlp_squeeze * std::clamp(excess, 0.0, 1.0));
    const double dmlp = excess > 0.0 && excess < 1.0
                            ? -ph.mlp * config_.mlp_squeeze / pc.span_m
                            : 0.0;
    const double theta = cores_[s.active[i]].mem_throttle;
    const double stall = mem_latency / (mlp_eff * theta);
    const double scale = -target[i] * target[i] / config_.freq_hz;
    by_occ[i] = scale * ph.api *
                (stall - hit_latency - m * stall / mlp_eff * dmlp) *
                s.miss_slope[i];
    by_access[i] = scale * ph.api * (1.0 - m) * dhit;
    by_rho[i] = scale * ph.api * m / (mlp_eff * theta) * dmem;
  }

  // The regions: each adds its growth to the diagonal and, if it fills,
  // a rank-one term u_i = by_occ_i g_i / total, v_k = -g_k / x_k. rho
  // moves with every m_j, so each term reaches drho too, with weight
  // sum_j w_j g_j / total (w_j = d rho / d m_j * slope_j).
  std::size_t r = 0;
  for (std::size_t ri = 0; ri < s.num_regions; ++ri) {
    const SharerSet cores = s.regions[ri].sharers;
    const auto& state = s.occupancy.regions[ri];
    const double total = state.fill_total;
    // A sole sharer of a filling region holds its capacity at any rate.
    if (total > 0.0 && cores.size() == 1) continue;
    const OccupancyScratch::Sharer* sharer = state.sharers.data();
    for (const std::size_t j : cores) own[j] += (sharer++)->growth;
    if (!(total > 0.0)) continue;
    double* uc = u + r * n;
    double* vc = v + r * n;
    std::fill_n(uc, n, 0.0);
    std::fill_n(vc, n, 0.0);
    double to_rho = 0.0;
    bool moves = false;
    sharer = state.sharers.data();
    for (const std::size_t j : cores) {
      const double g = (sharer++)->growth;
      const double share = g / total;
      uc[j] = by_occ[j] * share;
      vc[j] = -g * inv_x[j];
      to_rho += rho_per_miss[j] * s.ips[j] * s.miss_slope[j] * share;
      moves = moves || uc[j] != 0.0;
    }
    for (std::size_t j : cores) drho[j] += to_rho * vc[j];
    if (moves) ++r;  // else u is zero: the term only reaches drho
  }
  for (std::size_t k = 0; k < n; ++k) {
    diag[k] = by_occ[k] * own[k] * inv_x[k];
    drho[k] += rho_per_miss[k] * s.ips[k] * s.miss_slope[k] * own[k] *
               inv_x[k];
  }

  // The shared latencies: by_access (x) api and by_rho (x) drho.
  if (dhit != 0.0) {
    std::copy_n(by_access.data(), n, u + r * n);
    for (std::size_t k = 0; k < n; ++k) v[r * n + k] = s.phase[k]->api;
    ++r;
  }
  if (dmem != 0.0) {
    std::copy_n(by_rho.data(), n, u + r * n);
    std::copy_n(drho.data(), n, v + r * n);
    ++r;
  }
  return r;
}

bool Machine::newton_step(const double* target, const double* g, double* d) {
  // (I - J)^-1 g = A^-1 g + A^-1 U (I - V^T A^-1 U)^-1 V^T A^-1 g with
  // A = I - D diagonal: scale g and U's columns by A^-1 (into d and U),
  // factor the r x r capacitance C = I - V^T A^-1 U, and add back
  // A^-1 U w for C w = V^T A^-1 g.
  const std::size_t n = scratch_.n;
  std::array<double, kMaxCores> a;
  std::array<double, kMaxCores * kMaxJacobianTerms> u, v;
  std::array<double, kMaxJacobianTerms * kMaxJacobianTerms> c;
  std::array<double, kMaxJacobianTerms> w;
  const std::size_t r = jacobian(target, a.data(), u.data(), v.data());
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 1.0 / (1.0 - a[i]);
    d[i] = g[i] * a[i];
  }
  for (std::size_t q = 0; q < r; ++q) {
    for (std::size_t i = 0; i < n; ++i) u[q * n + i] *= a[i];
  }
  for (std::size_t p = 0; p < r; ++p) {
    const double* vp = v.data() + p * n;
    double rhs = 0.0;
    for (std::size_t i = 0; i < n; ++i) rhs += vp[i] * d[i];
    w[p] = rhs;
    for (std::size_t q = 0; q < r; ++q) {
      const double* uq = u.data() + q * n;
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot += vp[i] * uq[i];
      c[p * r + q] = (p == q ? 1.0 : 0.0) - dot;
    }
  }
  if (!lu_solve(r, c.data(), w.data())) return false;
  for (std::size_t q = 0; q < r; ++q) {
    for (std::size_t i = 0; i < n; ++i) d[i] += u[q * n + i] * w[q];
  }
  return true;
}

/// Newton's method on G(x) = F(x) - x. Each round evaluates F at the
/// current iterate and stops, converged, once max_i |G_i| / x_i <
/// tolerance: that round's inputs are kept as the solution, with no final
/// update, so re-solving a converged state exits in round 1 with identical
/// bits. Otherwise the next iterate is x + d with (I - J) d = G, J = dF/dx
/// (newton_step). Safeguard: an iterate that is not finite and positive
/// (or a singular system) falls back to the half step x + G/2, which
/// stays positive because F is.
bool Machine::solve_fixed_point(unsigned& rounds_used) {
  auto& s = scratch_;
  const std::size_t n = s.n;
  std::array<double, kMaxCores> target{}, g{}, d{};
  rounds_used = 0;
  for (unsigned round = 0; round < config_.fixed_point_rounds; ++round) {
    evaluate(target.data());
    ++rounds_used;
    double res = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      g[i] = target[i] - s.ips[i];
      res = std::max(res, std::fabs(g[i]) / s.ips[i]);
    }
    if (res < tolerance_) return true;
    if (rounds_used == config_.fixed_point_rounds) break;

    bool ok = newton_step(target.data(), g.data(), d.data());
    for (std::size_t i = 0; ok && i < n; ++i) {
      d[i] += s.ips[i];
      ok = std::isfinite(d[i]) && d[i] > 0.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      s.ips[i] = ok ? d[i] : s.ips[i] + 0.5 * g[i];
    }
  }
  return false;
}

void SolverStats::merge(const SolverStats& other) {
  quanta += other.quanta;
  replays += other.replays;
  solves += other.solves;
  stable_solves += other.stable_solves;
  unstable_solves += other.unstable_solves;
  rounds_past_hist += other.rounds_past_hist;
  invalidations_actuator += other.invalidations_actuator;
  invalidations_fingerprint += other.invalidations_fingerprint;
  for (std::size_t r = 0; r < kRoundsBuckets; ++r) {
    rounds_hist[r] += other.rounds_hist[r];
  }
}

std::uint64_t SolverStats::total_rounds() const noexcept {
  std::uint64_t total = rounds_past_hist;
  for (std::size_t r = 0; r < kRoundsBuckets; ++r) {
    total += rounds_hist[r] * (r + 1);
  }
  return total;
}

Machine::Machine(const MachineConfig& config)
    : config_(config),
      tracer_(&trace::resolve(config.tracer)),
      link_(config.link) {
  if (config_.num_cores == 0 || config_.num_cores > kMaxCores) {
    throw std::invalid_argument("Machine: core count outside 1..64");
  }
  if (config_.llc.ways == 0 || config_.llc.ways > kMaxWays) {
    throw std::invalid_argument("Machine: unsupported LLC way count");
  }
  if (config_.quantum_sec <= 0.0) {
    throw std::invalid_argument("Machine: quantum must be > 0");
  }
  if (config_.freq_hz <= 0.0) {
    throw std::invalid_argument("Machine: frequency must be > 0");
  }
  if (config_.fixed_point_rounds == 0) {
    throw std::invalid_argument("Machine: fixed_point_rounds must be > 0");
  }
  cores_ = std::make_unique<CoreState[]>(config_.num_cores);
  for (unsigned c = 0; c < config_.num_cores; ++c) {
    cores_[c].mask = WayMask::full(config_.llc.ways);
  }
}

void Machine::check_core(unsigned core) const {
  if (core >= config_.num_cores) {
    throw std::out_of_range("Machine: core " + std::to_string(core) +
                            " out of range");
  }
}

void Machine::invalidate_regions() noexcept {
  regions_valid_ = false;
  scratch_.occupancy.invalidate();
  invalidate_solve();
}

void Machine::invalidate_solve() noexcept {
  if (solve_cache_.armed) {
    solve_cache_.armed = false;
    ++stats_.invalidations_actuator;
  }
}

namespace {

/// Hands out consecutive arrays of one block, each starting 8-aligned and
/// value-initialised; with no block it only adds up their bytes.
class Carver {
 public:
  explicit Carver(std::byte* block) : block_(block) {}

  template <typename T>
  T* take(std::size_t count) {
    static_assert(alignof(T) <= 8 && std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    T* p = nullptr;
    if (block_ != nullptr) {
      p = reinterpret_cast<T*>(block_ + used_);
      std::uninitialized_value_construct_n(p, count);
    }
    used_ += (count * sizeof(T) + 7) & ~std::size_t{7};
    return p;
  }
  std::size_t used() const noexcept { return used_; }

 private:
  std::byte* block_;
  std::size_t used_ = 0;
};

/// The most reuse components any phase of `profile` has.
std::size_t most_reuse(const AppProfile& profile) {
  std::size_t most = 0;
  for (const auto& ph : profile.phases) {
    most = std::max(most, ph.mrc.components().size());
  }
  return most;
}

}  // namespace

void Machine::reserve_scratch(std::size_t slots, std::size_t reuse,
                              std::size_t regions, std::size_t sharers) {
  StepScratch& s = scratch_;
  if (slots <= s.slot_capacity && reuse <= s.reuse_capacity &&
      regions <= s.region_capacity && sharers <= s.sharer_capacity) {
    return;
  }
  slots = std::max(slots, s.slot_capacity);
  reuse = std::max(reuse, s.reuse_capacity);
  regions = std::max(regions, s.region_capacity);
  sharers = std::max(sharers, s.sharer_capacity);
  // The same carve twice: once to size the block, once to place the
  // arrays in it.
  auto carve = [&](StepScratch& t, std::byte* block) {
    Carver c(block);
    t.active = c.take<unsigned>(slots);
    t.active_masks = c.take<WayMask>(slots);
    t.phase = c.take<const AppPhase*>(slots);
    t.pc = c.take<PhaseConst>(slots);
    t.ips = c.take<double>(slots);
    t.occ = c.take<double>(slots);
    t.miss = c.take<double>(slots);
    t.miss_slope = c.take<double>(slots);
    t.demand = c.take<double>(slots);
    t.achieved = c.take<double>(slots);
    t.cache_demand = c.take<CacheDemand>(slots);
    t.runs = c.take<CounterRun>(slots);
    t.wfrac = c.take<double>(reuse);
    t.reuse = c.take<ReuseComponent>(reuse);
    t.regions = c.take<CacheRegion>(regions);
    t.occupancy.avail = {c.take<double>(slots), slots};
    t.occupancy.knots = {c.take<OccupancyScratch::Knot>(reuse), reuse};
    t.occupancy.regions = {c.take<OccupancyScratch::RegionState>(regions),
                           regions};
    t.occupancy.sharers = {c.take<OccupancyScratch::Sharer>(sharers),
                           sharers};
    return c.used();
  };
  StepScratch sizing;
  auto block =
      std::make_unique_for_overwrite<std::byte[]>(carve(sizing, nullptr));
  const StepScratch old = std::move(s);
  carve(s, block.get());
  s.block = std::move(block);
  // Every slot keeps its contents, and the decomposition is kept. The
  // phase constants (their weight shares were in the old block) and the
  // occupancy solve's layout state are rebuilt, to the same values, in
  // the new one.
  const std::size_t kept = old.slot_capacity;
  std::copy_n(old.active, kept, s.active);
  std::copy_n(old.active_masks, kept, s.active_masks);
  std::copy_n(old.phase, kept, s.phase);
  std::copy_n(old.ips, kept, s.ips);
  std::copy_n(old.occ, kept, s.occ);
  std::copy_n(old.miss, kept, s.miss);
  std::copy_n(old.miss_slope, kept, s.miss_slope);
  std::copy_n(old.demand, kept, s.demand);
  std::copy_n(old.achieved, kept, s.achieved);
  std::copy_n(old.runs, kept, s.runs);
  std::copy_n(old.regions, old.num_regions, s.regions);
  s.occupancy.invalidate();
  s.slot_capacity = slots;
  s.reuse_capacity = reuse;
  s.region_capacity = regions;
  s.sharer_capacity = sharers;
}

void Machine::refresh_regions() {
  if (regions_valid_) return;
  StepScratch& s = scratch_;
  std::size_t apps = 0;
  for (unsigned c = 0; c < config_.num_cores; ++c) {
    if (cores_[c].app) s.active_masks[apps++] = cores_[c].mask;
  }
  std::array<CacheRegion, kMaxWays> found;
  const std::size_t count =
      decompose_regions({s.active_masks, apps}, config_.llc.ways,
                        config_.way_bytes(), found);
  std::size_t sharers = 0;
  for (std::size_t r = 0; r < count; ++r) sharers += found[r].sharers.size();
  reserve_scratch(0, 0, count, sharers);
  std::copy_n(found.begin(), count, s.regions);
  s.num_regions = count;
  regions_valid_ = true;
}

std::span<const CacheRegion> Machine::current_regions() {
  refresh_regions();
  return {scratch_.regions, scratch_.num_regions};
}

void Machine::attach(unsigned core, const AppProfile* profile) {
  check_core(core);
  if (cores_[core].app.has_value()) {
    throw std::logic_error("Machine::attach: core already occupied");
  }
  // Room for every attached app before anything changes, so a failed
  // allocation leaves the machine as it was: a slot and a window as wide
  // as its largest phase's reuse components for each, and the regions of
  // the layouts policies write — one shared partition, or disjoint HP and
  // BE partitions: at most two regions, one sharer entry per slot.
  const std::size_t width = most_reuse(*profile);
  std::size_t slots = 1;
  std::size_t reuse = width;
  for (unsigned c = 0; c < config_.num_cores; ++c) {
    if (!cores_[c].app) continue;
    ++slots;
    reuse += cores_[c].reuse;
  }
  reserve_scratch(slots, reuse, std::min<std::size_t>(slots, 2), slots);
  cores_[core].app.emplace(profile);
  cores_[core].ips_seed = 0.0;
  cores_[core].reuse = static_cast<std::uint32_t>(width);
  drop_slots();
  invalidate_regions();
}

void Machine::drop_slots() noexcept {
  StepScratch& s = scratch_;
  s.runs_live = false;
  for (std::size_t i = 0; i < s.slot_capacity; ++i) s.pc[i].phase = nullptr;
}

void Machine::detach(unsigned core) {
  check_core(core);
  CoreState& cs = cores_[core];
  cs.app.reset();
  cs.telemetry.occupancy_bytes = 0.0;
  cs.telemetry.last_quantum_ipc = 0.0;
  cs.ips_seed = 0.0;
  // The departing tenant's actuator state must not leak to the next one:
  // reclaiming a core resets its partition and throttle to the defaults,
  // like an orchestrator returning the core's CLOS to CLOS0.
  cs.mask = WayMask::full(config_.llc.ways);
  cs.mem_throttle = 1.0;
  cs.reuse = 0;
  drop_slots();
  invalidate_regions();
}

bool Machine::occupied(unsigned core) const {
  check_core(core);
  return cores_[core].app.has_value();
}

const AppRuntime& Machine::runtime(unsigned core) const {
  check_core(core);
  if (!cores_[core].app) {
    throw std::logic_error("Machine::runtime: core is idle");
  }
  return *cores_[core].app;
}

void Machine::set_fill_mask(unsigned core, WayMask mask) {
  check_core(core);
  if (mask.empty()) {
    throw std::invalid_argument("Machine::set_fill_mask: empty mask");
  }
  if (!WayMask::full(config_.llc.ways).contains(mask)) {
    throw std::invalid_argument(
        "Machine::set_fill_mask: mask exceeds cache ways: " +
        mask.to_string());
  }
  if (cores_[core].mask != mask) {
    cores_[core].mask = mask;
    invalidate_regions();
  }
}

WayMask Machine::fill_mask(unsigned core) const {
  check_core(core);
  return cores_[core].mask;
}

void Machine::set_mem_throttle(unsigned core, double fraction) {
  check_core(core);
  if (fraction <= 0.0 || fraction > 1.0) {
    throw std::invalid_argument(
        "Machine::set_mem_throttle: fraction outside (0, 1]");
  }
  if (cores_[core].mem_throttle != fraction) {
    cores_[core].mem_throttle = fraction;
    invalidate_solve();
  }
}

double Machine::mem_throttle(unsigned core) const {
  check_core(core);
  return cores_[core].mem_throttle;
}

const CoreTelemetry& Machine::telemetry(unsigned core) const {
  check_core(core);
  return cores_[core].telemetry;
}

namespace {

/// A run's counter after k quanta. Every closed-form value goes through
/// here, so the predicate replay_room tests and the bits write_run stores
/// are the same expression.
inline double at(double base, double k, double d) { return base + k * d; }

}  // namespace

inline unsigned Machine::commit(std::size_t i, double instructions,
                                double bytes) {
  CoreState& cs = cores_[scratch_.active[i]];
  AppRuntime& rt = *cs.app;
  CounterRun& run = scratch_.runs[i];
  if (instructions == run.d_instructions && bytes == run.d_bytes &&
      rt.fits(instructions, rt.into_phase_)) {
    ++run.k;
    write_run(i);
    return 0;
  }
  CoreTelemetry& tel = cs.telemetry;
  const unsigned completed = rt.advance(instructions);
  tel.instructions += instructions;
  tel.active_cycles += config_.freq_hz * config_.quantum_sec;
  tel.mem_bytes += bytes;
  run = {rt.retired_total_, rt.into_phase_, tel.instructions,
         tel.active_cycles,  tel.mem_bytes,  instructions,
         bytes,              0};
  return completed;
}

inline void Machine::write_run(std::size_t i) {
  CoreState& cs = cores_[scratch_.active[i]];
  const CounterRun& run = scratch_.runs[i];
  AppRuntime& rt = *cs.app;
  CoreTelemetry& tel = cs.telemetry;
  // Exact below 2^53 either way; the signed conversion is one instruction.
  const auto k = static_cast<double>(static_cast<std::int64_t>(run.k));
  rt.retired_total_ = at(run.retired, k, run.d_instructions);
  rt.into_phase_ = at(run.into_phase, k, run.d_instructions);
  tel.instructions = at(run.instructions, k, run.d_instructions);
  tel.active_cycles =
      at(run.active_cycles, k, config_.freq_hz * config_.quantum_sec);
  tel.mem_bytes = at(run.mem_bytes, k, run.d_bytes);
}

void Machine::step() {
  const double dt = config_.quantum_sec;
  const double freq = config_.freq_hz;
  auto& s = scratch_;

  ++quantum_;

  // While armed, no actuator has run since the arming solve (attach,
  // detach, masks and throttles disarm), so s.active still lists the
  // active cores and s.phase holds the phases that solve was computed for:
  // the replay fingerprint. (An app that completed and restarted into the
  // same phase is the same solver input: the solve depends on the phase,
  // not on the position within it.)
  bool replayed = solve_cache_.armed;
  for (std::size_t i = 0; replayed && i < s.n; ++i) {
    replayed = &cores_[s.active[i]].app->current_phase() == s.phase[i];
  }
  if (replayed) {
    // Identical inputs, and the previous solve converged on the inputs it
    // kept: re-running the fixed point would evaluate that round again,
    // converge in round 1 and change nothing, so the scratch state
    // (ips/occ/arbitration) and last_rho_/last_traffic_ already hold this
    // quantum's exact solution. Only progress and telemetry move.
    ++stats_.replays;
  } else {
    if (solve_cache_.armed) {
      solve_cache_.armed = false;
      ++stats_.invalidations_fingerprint;
    }
    s.n = 0;
    for (unsigned c = 0; c < config_.num_cores; ++c) {
      if (cores_[c].app) s.active[s.n++] = c;
    }
    if (s.n == 0) return;
    for (std::size_t i = 0; i < s.n; ++i) {
      s.phase[i] = &cores_[s.active[i]].app->current_phase();
    }
    solve_cache_.armed = solve_quantum();
    last_rho_ = s.arb.raw_utilisation;
    last_traffic_ = s.arb.total_achieved_bytes_per_sec;
  }
  ++stats_.quanta;
  const std::size_t n = s.n;

  // Commit the quantum.
  if (!s.runs_live) {
    std::fill_n(s.runs, n, CounterRun{});
    s.runs_live = true;
  }
  for (std::size_t i = 0; i < n; ++i) {
    CoreState& cs = cores_[s.active[i]];
    auto& tel = cs.telemetry;
    tel.completions += commit(i, s.ips[i] * dt, s.achieved[i] * dt);
    tel.occupancy_bytes = s.occ[i];
    tel.last_quantum_ipc = s.ips[i] / freq;
    cs.ips_seed = s.ips[i];
  }

  auto& tr = *tracer_;
  tr.emit(trace::Kind::kQuantum, time_sec(), [&] {
    std::vector<trace::Field> fields;
    fields.reserve(2 + 2 * n);
    fields.emplace_back("rho", last_rho_);
    fields.emplace_back("traffic_bps", last_traffic_);
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned core = s.active[i];
      fields.emplace_back("ipc_c" + std::to_string(core),
                          cores_[core].telemetry.last_quantum_ipc);
      fields.emplace_back("occ_c" + std::to_string(core), s.occ[i]);
    }
    return fields;
  });
}

bool Machine::solve_quantum() {
  refresh_regions();
  auto& s = scratch_;
  const std::size_t n = s.n;
  const double freq = config_.freq_hz;

  double* wfrac = s.wfrac;  // slot i's window follows slot i-1's
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned core = s.active[i];
    const AppPhase* ph = s.phase[i];
    if (s.pc[i].phase != ph) s.pc[i].build(*ph, wfrac);
    wfrac += cores_[core].reuse;

    // Warm-started state.
    const double seed = cores_[core].ips_seed;
    s.ips[i] = seed > 0.0 ? seed : freq / (ph->cpi_core + 1.0);
  }

  std::fill_n(s.occ, n, 0.0);
  std::fill_n(s.miss, n, 1.0);
  std::fill_n(s.miss_slope, n, 0.0);
  std::fill_n(s.demand, n, 0.0);

  unsigned rounds_used = 0;
  const bool converged = solve_fixed_point(rounds_used);

  ++stats_.solves;
  if (rounds_used > 0) {
    const std::size_t buckets = stats_.rounds_hist.size();
    ++stats_.rounds_hist[std::min<std::size_t>(rounds_used, buckets) - 1];
    if (rounds_used > buckets) stats_.rounds_past_hist += rounds_used - buckets;
  }
  if (converged) {
    ++stats_.stable_solves;
  } else {
    ++stats_.unstable_solves;
  }
  return converged;
}

std::uint64_t Machine::replay_room(std::uint64_t limit) const {
  const auto& s = scratch_;
  if (!solve_cache_.armed) return 0;
  const double dt = config_.quantum_sec;
  for (std::size_t i = 0; i < s.n && limit > 0; ++i) {
    const AppRuntime& rt = *cores_[s.active[i]].app;
    const CounterRun& run = s.runs[i];
    const double d = run.d_instructions;
    // A replayed quantum adds the armed solve's increments, and extends
    // this run only if they are the run's.
    if (&rt.current_phase() != s.phase[i] || d != s.ips[i] * dt ||
        run.d_bytes != s.achieved[i] * dt) {
      return 0;
    }
    // The quantum after q run quanta extends the run iff extends(q). It
    // is monotone (the closed form only grows with q), so the room is the
    // first q >= run.k that fails, found by stepping from an estimate.
    auto extends = [&](std::uint64_t q) {
      return rt.fits(d, at(run.into_phase, static_cast<double>(q), d));
    };
    const std::uint64_t end = run.k + limit;
    const double guess =
        std::floor((rt.current_phase().instructions - run.into_phase) / d);
    std::uint64_t q = run.k;
    if (guess > static_cast<double>(end)) {
      q = end;
    } else if (guess > static_cast<double>(run.k)) {
      q = static_cast<std::uint64_t>(guess);
    }
    while (q < end && extends(q)) ++q;
    while (q > run.k && !extends(q - 1)) --q;
    limit = q - run.k;
  }
  return limit;
}

void Machine::commit_replayed(std::uint64_t quanta) {
  quantum_ += quanta;
  stats_.quanta += quanta;
  stats_.replays += quanta;
  for (std::size_t i = 0; i < scratch_.n; ++i) {
    scratch_.runs[i].k += quanta;
    write_run(i);
  }
}

void Machine::run_until(std::uint64_t target) {
  // A kQuantum subscriber, counting or recording, needs every quantum's
  // event from step().
  const bool bulk = !tracer_->enabled(trace::Kind::kQuantum);
  while (quantum_ < target) {
    const std::uint64_t room = bulk ? replay_room(target - quantum_) : 0;
    if (room > 0) {
      commit_replayed(room);
    } else {
      step();
    }
  }
}

}  // namespace dicer::sim

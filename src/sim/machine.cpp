#include "sim/machine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/log.hpp"
#include "util/trace.hpp"

namespace dicer::sim {

void PhaseConst::build(const AppPhase& ph) {
  phase = &ph;
  sf = ph.mrc.stream_fraction();
  one_minus_sf = 1.0 - sf;
  floor_m = ph.mrc.floor();
  span_m = std::max(ph.mrc.ceiling() - floor_m, 1e-9);
  wfrac.clear();
  const auto& comps = ph.mrc.components();
  double wsum = 0.0;
  for (const auto& c : comps) wsum += c.weight;
  if (wsum > 0.0) {
    for (const auto& c : comps) wfrac.push_back(c.weight / wsum);
  }
  memo_occ = -1.0;
  memo_miss = 1.0;
}

namespace {

/// The damped fixed point over the active set, operating on the flat
/// scratch arrays in place. Returns true iff the final round reproduced
/// every IPS bit-exactly; `rounds_used` reports how many rounds ran.
bool solve_fixed_point(const MachineConfig& config,
                       const std::vector<CacheRegion>& regions,
                       MemoryLink& link,
                       const std::vector<double>& mem_throttle,
                       StepScratch& s, unsigned& rounds_used) {
  const std::size_t n = s.active.size();
  const double freq = config.freq_hz;
  const double line = config.llc.line_bytes;

  rounds_used = 0;
  bool stable = false;
  for (unsigned round = 0; round < config.fixed_point_rounds; ++round) {
    // 1. Occupancy under current IPS estimates (Che working-set model).
    //    Each MRC component becomes a reuse component whose touch rate is
    //    proportional to its miss-mass weight.
    for (std::size_t i = 0; i < n; ++i) {
      const AppPhase& ph = *s.phase[i];
      const PhaseConst& pc = s.pc[i];
      const double touch = ph.api * s.ips[i] * line;
      auto& cd = s.cache_demand[i];
      const auto& comps = ph.mrc.components();
      cd.reuse.resize(pc.wfrac.size());
      for (std::size_t j = 0; j < pc.wfrac.size(); ++j) {
        cd.reuse[j].rate_bytes_per_sec =
            touch * pc.one_minus_sf * pc.wfrac[j];
        cd.reuse[j].footprint_bytes = comps[j].ws_bytes;
      }
      cd.stream_bytes_per_sec = touch * pc.sf;
    }
    solve_occupancy(regions, s.cache_demand, config.occupancy, s.occupancy,
                    s.occ);

    // 2. Miss ratios and bandwidth demand. Occupancies repeat across
    //    rounds/quanta in steady state, so each core memoises its last
    //    (occupancy, miss) evaluation; neighbours running the same phase
    //    at the same occupancy (a consolidation's identical BEs) share
    //    one evaluation.
    for (std::size_t i = 0; i < n; ++i) {
      PhaseConst& pc = s.pc[i];
      if (s.occ[i] != pc.memo_occ) {
        pc.memo_occ = s.occ[i];
        pc.memo_miss = i > 0 && s.phase[i] == s.phase[i - 1] &&
                               s.occ[i] == s.occ[i - 1]
                           ? s.miss[i - 1]
                           : s.phase[i]->mrc.at(s.occ[i]);
      }
      s.miss[i] = pc.memo_miss;
      s.demand[i] = s.phase[i]->api * s.miss[i] * s.ips[i] * line *
                    (1.0 + s.phase[i]->wb_ratio);
    }
    link.arbitrate_into(s.demand, s.arb);

    // 3. New IPC estimates under the arbitrated latency; bandwidth cap when
    //    the link is oversubscribed. The LLC hit path is shared too: ring /
    //    LLC-port pressure from everyone's access rate inflates it.
    double total_accesses = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total_accesses += s.phase[i]->api * s.ips[i];
    }
    const double hit_latency =
        config.llc_hit_latency_cycles *
        (1.0 +
         config.uncore_contention_coeff *
             std::sqrt(std::min(
                 total_accesses / config.uncore_access_ref_per_sec, 1.0)));
    double worst_rel = 0.0;
    bool round_stable = true;
    for (std::size_t i = 0; i < n; ++i) {
      const AppPhase& ph = *s.phase[i];
      const PhaseConst& pc = s.pc[i];
      // Cache starvation serialises reuse misses: degrade MLP with the
      // excess miss ratio above the app's best case.
      const double excess =
          std::clamp((s.miss[i] - pc.floor_m) / pc.span_m, 0.0, 1.0);
      const double mlp_eff =
          ph.mlp *
          (1.0 - config.mlp_squeeze * excess);
      // An MBA throttle delays a core's memory requests: its exposed memory
      // latency stretches by 1/throttle, and its demand falls as its IPS
      // falls — the same route real MBA takes effect through.
      const double cpi =
          ph.cpi_core +
          ph.api *
              ((1.0 - s.miss[i]) * hit_latency +
               s.miss[i] * s.arb.effective_latency_cycles /
                   (mlp_eff * mem_throttle[s.active[i]]));
      const double target = freq / cpi;
      const double next =
          config.fixed_point_damping * target +
          (1.0 - config.fixed_point_damping) * s.ips[i];
      if (next != s.ips[i]) round_stable = false;
      worst_rel = std::max(worst_rel, std::fabs(next - s.ips[i]) /
                                          std::max(s.ips[i], 1.0));
      s.ips[i] = next;
    }
    ++rounds_used;
    if (worst_rel < 1e-4) {
      // The damped update is idempotent once a round reproduces every IPS
      // bit-exactly (round_stable, i.e. worst_rel == 0): the remaining
      // rounds are provably no-ops. The looser tolerance break subsumes
      // that exit, so this preserves the exact historical exit round;
      // round_stable's job is to license cross-quantum replay.
      stable = round_stable;
      break;
    }
  }
  return stable;
}

}  // namespace

void SolverStats::merge(const SolverStats& other) {
  quanta += other.quanta;
  replays += other.replays;
  solves += other.solves;
  stable_solves += other.stable_solves;
  unstable_solves += other.unstable_solves;
  invalidations_actuator += other.invalidations_actuator;
  invalidations_fingerprint += other.invalidations_fingerprint;
  if (rounds_hist.size() < other.rounds_hist.size()) {
    rounds_hist.resize(other.rounds_hist.size(), 0);
  }
  for (std::size_t r = 0; r < other.rounds_hist.size(); ++r) {
    rounds_hist[r] += other.rounds_hist[r];
  }
}

std::uint64_t SolverStats::total_rounds() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < rounds_hist.size(); ++r) {
    total += rounds_hist[r] * (r + 1);
  }
  return total;
}

Machine::Machine(const MachineConfig& config)
    : config_(config),
      tracer_(&trace::resolve(config.tracer)),
      apps_(config.num_cores),
      masks_(config.num_cores, WayMask::full(config.llc.ways)),
      mem_throttle_(config.num_cores, 1.0),
      telemetry_(config.num_cores),
      ips_seed_(config.num_cores, 0.0),
      link_(config.link) {
  if (config_.num_cores == 0 || config_.num_cores > 64) {
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
  stats_.rounds_hist.assign(std::max(config_.fixed_point_rounds, 1u), 0);
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
    solve_cache_.budget = 0;
    ++stats_.invalidations_actuator;
  }
}

void Machine::refresh_regions() {
  if (regions_valid_) return;
  scratch_.active_masks.clear();
  for (unsigned c = 0; c < config_.num_cores; ++c) {
    if (apps_[c]) scratch_.active_masks.push_back(masks_[c]);
  }
  regions_ = decompose_regions(scratch_.active_masks, config_.llc.ways,
                               config_.way_bytes());
  regions_valid_ = true;
}

const std::vector<CacheRegion>& Machine::current_regions() {
  refresh_regions();
  return regions_;
}

void Machine::attach(unsigned core, const AppProfile* profile) {
  check_core(core);
  if (apps_[core].has_value()) {
    throw std::logic_error("Machine::attach: core already occupied");
  }
  apps_[core].emplace(profile);
  ips_seed_[core] = 0.0;
  invalidate_regions();
}

void Machine::detach(unsigned core) {
  check_core(core);
  apps_[core].reset();
  telemetry_[core].occupancy_bytes = 0.0;
  telemetry_[core].last_quantum_ipc = 0.0;
  ips_seed_[core] = 0.0;
  // The departing tenant's actuator state must not leak to the next one:
  // reclaiming a core resets its partition and throttle to the defaults,
  // like an orchestrator returning the core's CLOS to CLOS0.
  masks_[core] = WayMask::full(config_.llc.ways);
  mem_throttle_[core] = 1.0;
  invalidate_regions();
}

bool Machine::occupied(unsigned core) const {
  check_core(core);
  return apps_[core].has_value();
}

const AppRuntime& Machine::runtime(unsigned core) const {
  check_core(core);
  if (!apps_[core]) throw std::logic_error("Machine::runtime: core is idle");
  return *apps_[core];
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
  if (masks_[core] != mask) {
    masks_[core] = mask;
    invalidate_regions();
  }
}

WayMask Machine::fill_mask(unsigned core) const {
  check_core(core);
  return masks_[core];
}

void Machine::set_mem_throttle(unsigned core, double fraction) {
  check_core(core);
  if (fraction <= 0.0 || fraction > 1.0) {
    throw std::invalid_argument(
        "Machine::set_mem_throttle: fraction outside (0, 1]");
  }
  if (mem_throttle_[core] != fraction) {
    mem_throttle_[core] = fraction;
    invalidate_solve();
  }
}

double Machine::mem_throttle(unsigned core) const {
  check_core(core);
  return mem_throttle_[core];
}

const CoreTelemetry& Machine::telemetry(unsigned core) const {
  check_core(core);
  return telemetry_[core];
}

void Machine::step() {
  const double dt = config_.quantum_sec;
  const double freq = config_.freq_hz;
  auto& s = scratch_;

  time_sec_ += dt;

  // While armed, no actuator has run since the arming solve (attach,
  // detach, masks and throttles disarm), so s.active still lists the
  // active cores and s.phase holds the phases that solve was computed for:
  // the replay fingerprint. (An app that completed and restarted into the
  // same phase is the same solver input: the solve depends on the phase,
  // not on the position within it.)
  bool replayed = solve_cache_.armed;
  for (std::size_t i = 0; replayed && i < s.active.size(); ++i) {
    replayed = &apps_[s.active[i]]->current_phase() == s.phase[i];
  }
  if (replayed) {
    // Identical inputs, and the previous solve ended on a round that
    // reproduced every IPS bit-exactly: re-running the fixed point would
    // retrace that round and change nothing, so the scratch state
    // (ips/occ/arbitration) and last_rho_/last_traffic_ already hold this
    // quantum's exact solution. Only progress and telemetry move.
    ++stats_.replays;
  } else {
    if (solve_cache_.armed) {
      solve_cache_.armed = false;
      ++stats_.invalidations_fingerprint;
    }
    s.active.clear();
    for (unsigned c = 0; c < config_.num_cores; ++c) {
      if (apps_[c]) s.active.push_back(c);
    }
    if (s.active.empty()) return;
    s.phase.clear();
    for (const unsigned core : s.active) {
      s.phase.push_back(&apps_[core]->current_phase());
    }
    solve_cache_.armed = solve_quantum();
    last_rho_ = s.arb.raw_utilisation;
    last_traffic_ = s.arb.total_achieved_bytes_per_sec;
  }
  ++stats_.quanta;
  const std::size_t n = s.active.size();

  // Commit the quantum.
  bool restarted = false;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned core = s.active[i];
    auto& tel = telemetry_[core];
    const double instructions = s.ips[i] * dt;
    const unsigned completed = apps_[core]->advance(instructions);
    tel.instructions += instructions;
    tel.active_cycles += freq * dt;
    tel.mem_bytes += s.arb.achieved_bytes_per_sec[i] * dt;
    tel.occupancy_bytes = s.occ[i];
    tel.completions += completed;
    tel.last_quantum_ipc = s.ips[i] / freq;
    ips_seed_[core] = s.ips[i];
    restarted = restarted || completed > 0;
  }
  // A replayed quantum spends one quantum of the budget. A fresh budget is
  // earned from the post-commit state when the cache was just armed, or
  // when a spent budget's limiting app restarted its run — the one way
  // back into the phase the solve was computed for. Until then a
  // recomputed budget would be 0 anyway.
  auto& budget = solve_cache_.budget;
  if (!solve_cache_.armed) {
    budget = 0;
  } else if (replayed && budget > 0) {
    --budget;
  } else if (!replayed || restarted) {
    budget = replay_budget();
  }

  auto& tr = *tracer_;
  if (tr.enabled(trace::Kind::kQuantum)) {
    std::vector<trace::Field> fields;
    fields.reserve(2 + 2 * n);
    fields.emplace_back("rho", last_rho_);
    fields.emplace_back("traffic_bps", last_traffic_);
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned core = s.active[i];
      fields.emplace_back("ipc_c" + std::to_string(core),
                          telemetry_[core].last_quantum_ipc);
      fields.emplace_back("occ_c" + std::to_string(core), s.occ[i]);
    }
    tr.emit(trace::Kind::kQuantum, time_sec_, std::move(fields));
  }
}

bool Machine::solve_quantum() {
  auto& s = scratch_;
  const std::size_t n = s.active.size();
  const double freq = config_.freq_hz;
  refresh_regions();

  if (s.pc.size() < n) s.pc.resize(n);
  s.ips.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned core = s.active[i];
    const AppPhase* ph = s.phase[i];
    if (s.pc[i].phase != ph) s.pc[i].build(*ph);

    // Warm-started state.
    const double seed = ips_seed_[core];
    s.ips[i] = seed > 0.0 ? seed : freq / (ph->cpi_core + 1.0);
  }

  s.occ.assign(n, 0.0);
  s.miss.assign(n, 1.0);
  s.demand.assign(n, 0.0);
  s.cache_demand.resize(n);

  unsigned rounds_used = 0;
  const bool stable =
      solve_fixed_point(config_, regions_, link_, mem_throttle_, s,
                        rounds_used);

  ++stats_.solves;
  if (rounds_used > 0) {
    const std::size_t slot =
        std::min<std::size_t>(rounds_used, stats_.rounds_hist.size()) - 1;
    ++stats_.rounds_hist[slot];
  }
  if (stable) {
    ++stats_.stable_solves;
  } else {
    ++stats_.unstable_solves;
  }
  return stable;
}

std::uint64_t Machine::replay_budget() const {
  const auto& s = scratch_;
  const double dt = config_.quantum_sec;
  std::uint64_t budget = UINT64_MAX;  // armed, so at least one slot
  for (std::size_t i = 0; i < s.active.size(); ++i) {
    const AppRuntime& rt = *apps_[s.active[i]];
    if (&rt.current_phase() != s.phase[i]) return 0;
    const double instr = s.ips[i] * dt;
    const double remaining = rt.phase_remaining();
    std::uint64_t safe_quanta = 0;
    if (instr > 0.0 && remaining > instr) {
      const double safe = std::floor(remaining / instr) - 2.0;
      if (safe > 0.0) safe_quanta = static_cast<std::uint64_t>(safe);
    }
    budget = std::min(budget, safe_quanta);
  }
  return budget;
}

void Machine::commit_replayed(std::uint64_t quanta) {
  const auto& s = scratch_;
  const double dt = config_.quantum_sec;
  const double cycles = config_.freq_hz * dt;
  double t = time_sec_;
  for (std::uint64_t q = 0; q < quanta; ++q) t += dt;
  time_sec_ = t;
  stats_.quanta += quanta;
  stats_.replays += quanta;
  solve_cache_.budget -= quanta;
  // While armed, scratch holds the arming solve, indexed like `active`:
  // these are the products a replayed step() forms every quantum. Inside
  // the budget advance() takes its within-phase path, two additions and
  // no completion. Strict FP semantics keep the compiler from
  // reassociating the chains, so every committed bit matches.
  for (std::size_t i = 0; i < s.active.size(); ++i) {
    const unsigned core = s.active[i];
    AppRuntime& rt = *apps_[core];
    CoreTelemetry& tel = telemetry_[core];
    const double instr = s.ips[i] * dt;
    const double dbytes = s.arb.achieved_bytes_per_sec[i] * dt;
    double retired = rt.retired_total_;
    double into = rt.into_phase_;
    double t_instr = tel.instructions;
    double t_cyc = tel.active_cycles;
    double t_mem = tel.mem_bytes;
    for (std::uint64_t q = 0; q < quanta; ++q) {
      retired += instr;
      into += instr;
      t_instr += instr;
      t_cyc += cycles;
      t_mem += dbytes;
    }
    rt.retired_total_ = retired;
    rt.into_phase_ = into;
    tel.instructions = t_instr;
    tel.active_cycles = t_cyc;
    tel.mem_bytes = t_mem;
  }
}

void Machine::run_for(double seconds) {
  const double dt = config_.quantum_sec;
  const auto quanta = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(seconds / dt - 1e-9)), 1);
  // A kQuantum subscriber needs every quantum's event from step().
  const bool bulk = !tracer_->enabled(trace::Kind::kQuantum);
  for (std::uint64_t done = 0; done < quanta;) {
    if (bulk && solve_cache_.budget > 0) {
      const std::uint64_t k = std::min(solve_cache_.budget, quanta - done);
      commit_replayed(k);
      done += k;
    } else {
      step();
      ++done;
    }
  }
}

void Machine::run_until(double t_sec) {
  const bool bulk = !tracer_->enabled(trace::Kind::kQuantum);
  while (time_sec_ < t_sec - 1e-9) {
    if (bulk && solve_cache_.budget > 0) {
      // Quanta left to the boundary, less the budget's 2-quantum margin:
      // undershooting is harmless (the tail is stepped against the exact
      // condition), and the margin rules out overshooting despite the
      // rounding accumulated in time_sec_.
      const double est =
          std::floor((t_sec - 1e-9 - time_sec_) / config_.quantum_sec);
      if (est > 2.0) {
        commit_replayed(std::min(solve_cache_.budget,
                                 static_cast<std::uint64_t>(est - 2.0)));
        continue;
      }
    }
    step();
  }
}

}  // namespace dicer::sim

#include "sim/machine_batch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/trace.hpp"

namespace dicer::sim {

MachineBatch::~MachineBatch() {
  // The shared table dies with the batch; machines fall back to their own
  // tables (values rebuild on demand, bit-identically).
  for (auto& lane : lanes_) lane.m->shared_phases_ = nullptr;
}

unsigned MachineBatch::add(Machine& machine) {
  if (machine.shared_phases_ != nullptr) {
    throw std::logic_error("MachineBatch::add: machine already in a batch");
  }
  Lane lane;
  lane.m = &machine;
  lane.tracer = &trace::resolve(machine.config_.tracer);
  lane.offset = slot_rt_.size();
  lane.dt = machine.config_.quantum_sec;
  lane.cycles_per_quantum =
      machine.config_.freq_hz * machine.config_.quantum_sec;
  const std::size_t cap = machine.config_.num_cores;
  slot_rt_.resize(slot_rt_.size() + cap, nullptr);
  slot_tel_.resize(slot_tel_.size() + cap, nullptr);
  slot_phase_idx_.resize(slot_phase_idx_.size() + cap, 0);
  slot_instr_.resize(slot_instr_.size() + cap, 0.0);
  slot_dbytes_.resize(slot_dbytes_.size() + cap, 0.0);
  machine.shared_phases_ = &phases_;
  lanes_.push_back(lane);
  // A machine enrolled mid-life may already hold an armed solve: fuse it
  // right away so the first batch step can take the fast path.
  if (machine.solve_cache_.armed) {
    try_snapshot(lanes_.back(), machine);
  }
  return static_cast<unsigned>(lanes_.size() - 1);
}

// Fused eligibility — everything a serial step's fingerprint compare
// establishes, maintained incrementally:
//   armed          actuators (attach/detach/mask/throttle) disarm, so an
//                  armed cache means no actuator touched the machine
//   expect_quanta  any step taken outside the batch advances the quantum
//                  counter, exposing externally-driven progress
//   phases         verified at snapshot time, then re-checked slot-by-
//                  slot after each boundary-checking fused advance (drift
//                  unfuses); within-budget commits cannot drift
//   tracer         a kQuantum subscriber needs the full event; delegate
//                  to Machine::step, which emits it bit-identically off
//                  the unchanged replay state
bool MachineBatch::fused_ready(const Lane& lane, const Machine& m) const {
  return lane.fused && m.solve_cache_.armed &&
         m.stats_.quanta == lane.expect_quanta &&
         !lane.tracer->enabled(trace::Kind::kQuantum);
}

void MachineBatch::step(unsigned lane_idx) {
  Lane& lane = lanes_[lane_idx];
  Machine& m = *lane.m;
  if (fused_ready(lane, m)) {
    fused_step(lane, m);
    return;
  }
  lane.fused = false;
  m.step();
  ++stats_.fallback_steps;
  lane.expect_quanta = m.stats_.quanta;
  if (m.solve_cache_.armed) {
    try_snapshot(lane, m);
  }
}

void MachineBatch::fused_step(Lane& lane, Machine& m) {
  // The serial replay path commits: time, the quantum/replay counters, and
  // per active core the app advance plus four telemetry accumulations. Its
  // remaining writes (occupancy_bytes, last_quantum_ipc, ips_seed) rewrite
  // values that are unchanged while the solve cache is armed, so skipping
  // them leaves every byte of machine state identical.
  m.time_sec_ += lane.dt;
  ++m.stats_.quanta;
  ++m.stats_.replays;
  ++lane.expect_quanta;
  ++stats_.fused_quanta;
  const std::size_t off = lane.offset;
  const std::size_t n = lane.slots;
  const double cyc = lane.cycles_per_quantum;
  if (lane.budget == 0) refill_budget(lane);
  if (lane.budget > 0) {
    // Budgeted quanta provably stay inside every slot's phase: the commit
    // is the advance() fast path's two additions per slot, with the
    // boundary predicate and drift check statically discharged at snapshot
    // time (completions stays untouched — a within-phase advance returns
    // zero, and adding zero is not an observable write).
    --lane.budget;
    for (std::size_t i = 0; i < n; ++i) {
      const double instr = slot_instr_[off + i];
      slot_rt_[off + i]->advance_within_phase(instr);
      CoreTelemetry& tel = *slot_tel_[off + i];
      tel.instructions += instr;
      tel.active_cycles += cyc;
      tel.mem_bytes += slot_dbytes_[off + i];
    }
    return;
  }
  bool drift = false;
  for (std::size_t i = 0; i < n; ++i) {
    AppRuntime& rt = *slot_rt_[off + i];
    const double instr = slot_instr_[off + i];
    const unsigned completed = rt.advance(instr);
    CoreTelemetry& tel = *slot_tel_[off + i];
    tel.instructions += instr;
    tel.active_cycles += cyc;
    tel.mem_bytes += slot_dbytes_[off + i];
    tel.completions += completed;
    // Phase drift during this commit (boundary crossing into a different
    // phase) is exactly what the serial fingerprint compare would catch at
    // the *next* step — this quantum's values were solved before the
    // crossing either way. A whole-run restart into the same phase keeps
    // the same phase index (hence pointer) and stays fused, like serial
    // replay does.
    if (rt.phase_index() != slot_phase_idx_[off + i]) drift = true;
  }
  if (drift) lane.fused = false;
}

void MachineBatch::fused_run(Lane& lane, Machine& m, std::uint64_t quanta) {
  // A bulk commit is `quanta` fused_step budget commits with the loops
  // interchanged: per accumulator we perform the identical sequence of
  // individual additions (never a multiply — FP addition does not
  // distribute), but the running values live in registers and touch
  // memory once per slot instead of once per quantum. Strict FP semantics
  // forbid the compiler from reassociating the chains, so every committed
  // byte matches the single-step path exactly.
  double t = m.time_sec_;
  for (std::uint64_t q = 0; q < quanta; ++q) t += lane.dt;
  m.time_sec_ = t;
  m.stats_.quanta += quanta;
  m.stats_.replays += quanta;
  lane.expect_quanta += quanta;
  stats_.fused_quanta += quanta;
  lane.budget -= quanta;
  const std::size_t off = lane.offset;
  const std::size_t n = lane.slots;
  const double cyc = lane.cycles_per_quantum;
  for (std::size_t i = 0; i < n; ++i) {
    AppRuntime& rt = *slot_rt_[off + i];
    CoreTelemetry& tel = *slot_tel_[off + i];
    const double instr = slot_instr_[off + i];
    const double dbytes = slot_dbytes_[off + i];
    double retired = rt.retired_total_;
    double into = rt.into_phase_;
    double t_instr = tel.instructions;
    double t_cyc = tel.active_cycles;
    double t_mem = tel.mem_bytes;
    for (std::uint64_t q = 0; q < quanta; ++q) {
      retired += instr;
      into += instr;
      t_instr += instr;
      t_cyc += cyc;
      t_mem += dbytes;
    }
    rt.retired_total_ = retired;
    rt.into_phase_ = into;
    tel.instructions = t_instr;
    tel.active_cycles = t_cyc;
    tel.mem_bytes = t_mem;
  }
}

void MachineBatch::try_snapshot(Lane& lane, Machine& m) {
  const auto& cache = m.solve_cache_;
  const auto& s = m.scratch_;
  const std::size_t n = cache.active.size();
  // The arming step's own commit may have crossed a phase boundary after
  // the solve; fusing then would replay values for a phase set that no
  // longer holds. Refuse, and let the next fallback step re-solve.
  for (std::size_t i = 0; i < n; ++i) {
    if (&m.apps_[cache.active[i]]->current_phase() != cache.phase[i]) {
      return;
    }
  }
  const std::size_t off = lane.offset;
  const double dt = lane.dt;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned core = cache.active[i];
    slot_rt_[off + i] = &*m.apps_[core];
    slot_tel_[off + i] = &m.telemetry_[core];
    // Verified equal to cache.phase[i]'s index just above.
    slot_phase_idx_[off + i] = m.apps_[core]->phase_index();
    // While armed, scratch still holds the arming solve's state indexed by
    // cache.active, so these are the exact products a serial replayed
    // commit would form each quantum.
    slot_instr_[off + i] = s.ips[i] * dt;
    slot_dbytes_[off + i] = s.arb.achieved_bytes_per_sec[i] * dt;
  }
  lane.slots = n;
  lane.fused = true;
  lane.expect_quanta = m.stats_.quanta;
  refill_budget(lane);
  ++stats_.snapshots;
}

std::uint64_t MachineBatch::refill_budget(Lane& lane) {
  // Quanta that provably stay inside every slot's phase: per slot,
  // floor(phase_remaining / instr) minus a 2-quantum margin; the lane
  // budget is the min across slots. The margin dominates accumulated
  // rounding (k additions of `instr` drift by ~k ulps, many orders of
  // magnitude below one quantum's worth), so within-budget commits can
  // skip the boundary predicate and drift check without changing any
  // result bit.
  const std::size_t off = lane.offset;
  const std::size_t n = lane.slots;
  std::uint64_t budget = UINT64_MAX;
  for (std::size_t i = 0; i < n; ++i) {
    const double instr = slot_instr_[off + i];
    const double remaining = slot_rt_[off + i]->phase_remaining();
    std::uint64_t safe_quanta = 0;
    if (instr > 0.0 && remaining > instr) {
      const double safe = std::floor(remaining / instr) - 2.0;
      if (safe > 0.0) safe_quanta = static_cast<std::uint64_t>(safe);
    }
    budget = std::min(budget, safe_quanta);
  }
  lane.budget = (n > 0) ? budget : 0;
  return lane.budget;
}

void MachineBatch::run_for(unsigned lane_idx, double seconds) {
  Lane& lane = lanes_[lane_idx];
  const double dt = lane.dt;
  const auto quanta = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(seconds / dt - 1e-9)), 1);
  std::uint64_t done = 0;
  while (done < quanta) {
    Machine& m = *lane.m;
    // The quantum count is exact, so a within-budget chunk can be committed
    // in one fused_run; quanta past the budget (or off the fast path) go
    // through the boundary-checking single-step machinery.
    if (lane.budget > 0 && fused_ready(lane, m)) {
      const std::uint64_t k = std::min(lane.budget, quanta - done);
      fused_run(lane, m, k);
      done += k;
      continue;
    }
    step(lane_idx);
    ++done;
  }
}

void MachineBatch::run_until(unsigned lane_idx, double t_sec) {
  Lane& lane = lanes_[lane_idx];
  Machine& m = *lane.m;
  while (m.time_sec_ < t_sec - 1e-9) {
    if (lane.budget > 0 && fused_ready(lane, m)) {
      // Estimate the quanta left to the boundary with the same 2-quantum
      // safety margin the budget carries: undershooting is harmless (the
      // loop single-steps the tail against the exact serial condition),
      // while the margin makes overshooting impossible despite the
      // rounding accumulated in time_sec_.
      const double est = std::floor((t_sec - 1e-9 - m.time_sec_) / lane.dt);
      if (est > 2.0) {
        const auto k = std::min(lane.budget,
                                static_cast<std::uint64_t>(est - 2.0));
        fused_run(lane, m, k);
        continue;
      }
    }
    step(lane_idx);
  }
}

}  // namespace dicer::sim

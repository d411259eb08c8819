// sim::MachineBatch — batched quantum stepping over a group of machines
// sharing one catalog of app profiles.
//
// A batch holds N independent machines ("lanes") in structure-of-arrays
// layout: flat lane-major slot arenas (one slot per active core) for the
// per-quantum commit state — app-runtime and telemetry pointers, the phase
// each slot was solved for, and the precomputed per-quantum instruction
// and memory-byte increments — plus one deduplicated PhaseConstTable every
// lane's solves resolve through (one PhaseConst per distinct phase across
// the batch, instead of one per core per machine).
//
// The speed comes from *fusing* the steady-state replay path of PR 4.
// A serial replayed Machine::step still rebuilds the active-core and phase
// vectors, compares them against the solve-cache fingerprint, and walks
// the commit loop through scattered per-machine state. A fused lane has
// already proven the fingerprint holds (the snapshot verified every slot's
// phase, and nothing that could change the answer has happened since —
// actuators disarm the solve cache, external steps bump the quantum
// counter, phase drift is caught slot-by-slot as it happens), so a fused
// step is just the commit: advance each slot by its precomputed
// instruction count and bump its telemetry from the flat arrays. Every
// value written is bit-identical to what the serial replay path writes —
// the same products of the same operands — and writes the replay path
// would make with unchanged values (occupancy, last-quantum IPC, the IPS
// seed) are skipped, which no observer can distinguish. Lanes whose
// machines never arm (churn-heavy phases) simply fall back to
// Machine::step every quantum and are byte-identical by construction.
//
// Guarantees and contract:
//   - Results are byte-identical to stepping each machine serially, for
//     every observable: telemetry, solver stats, trace events, link state.
//     Equivalence tests pin this under randomized actuator churn.
//   - Machines must outlive the batch; a machine can be in at most one
//     batch at a time. Actuating a lane's machine (attach/detach/masks/
//     throttles) between steps is fully supported — that is how the sweep
//     and fleet consumers drive their policies. Mutating a lane's
//     AppRuntime objects directly (reset()) while the batch is live is
//     not.
//   - A batch is driven by one thread at a time (consumers shard work as
//     one batch per task); distinct batches are fully independent.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"

namespace dicer::trace {
class Tracer;
}

namespace dicer::sim {

class MachineBatch {
 public:
  /// Fast-path accounting (diagnostics only — never part of results).
  struct Stats {
    std::uint64_t fused_quanta = 0;    ///< quanta committed by the fused path
    std::uint64_t fallback_steps = 0;  ///< quanta delegated to Machine::step
    std::uint64_t snapshots = 0;       ///< lane snapshots (re)taken
  };

  MachineBatch() = default;
  ~MachineBatch();

  MachineBatch(const MachineBatch&) = delete;
  MachineBatch& operator=(const MachineBatch&) = delete;

  /// Enroll `machine` as a new lane and return its lane index. Installs the
  /// batch's shared PhaseConstTable on the machine (cleared again by the
  /// batch destructor). Throws std::logic_error if the machine is already
  /// in a batch.
  unsigned add(Machine& machine);

  std::size_t size() const noexcept { return lanes_.size(); }
  Machine& machine(unsigned lane) { return *lanes_.at(lane).m; }
  const Machine& machine(unsigned lane) const { return *lanes_.at(lane).m; }

  /// Advance lane by one quantum — bit-equal to lane's Machine::step().
  void step(unsigned lane);
  /// Advance lane by `seconds` in whole quanta — bit-equal to
  /// Machine::run_for (same rounding, >= 1 quantum).
  void run_for(unsigned lane, double seconds);
  /// Advance lane until its time_sec() >= t_sec — bit-equal to
  /// Machine::run_until (never overshoots the boundary).
  void run_until(unsigned lane, double t_sec);

  const Stats& stats() const noexcept { return stats_; }
  /// Distinct phases the batch has solved for (table occupancy).
  std::size_t shared_phase_count() const noexcept { return phases_.size(); }

 private:
  struct Lane {
    Machine* m = nullptr;
    trace::Tracer* tracer = nullptr;  ///< resolved once at add()
    std::size_t offset = 0;  ///< this lane's base slot in the arenas
    std::size_t slots = 0;   ///< active slots while fused
    bool fused = false;
    /// The machine's quantum counter as of the last batch-driven step:
    /// a mismatch at step entry means someone stepped the machine outside
    /// the batch, so the snapshot may be stale and the lane unfuses.
    std::uint64_t expect_quanta = 0;
    /// Quanta every slot can provably advance without reaching its phase
    /// boundary: min over slots of floor(phase_remaining / instr) with a
    /// 2-quantum margin for accumulated rounding, computed at snapshot
    /// time. While the budget lasts a fused commit needs no phase loads,
    /// no boundary predicate and no drift check — and run_for/run_until
    /// commit whole within-budget chunks slot-major with the accumulators
    /// held in registers (fused_run). Once spent, quanta fall back to the
    /// boundary-checking single-step path until the next snapshot refills
    /// it.
    std::uint64_t budget = 0;
    double dt = 0.0;                  ///< config.quantum_sec
    double cycles_per_quantum = 0.0;  ///< freq_hz * quantum_sec
  };

  /// Everything a serial step's fingerprint compare establishes, checked
  /// incrementally (see step() for the per-condition rationale).
  bool fused_ready(const Lane& lane, const Machine& m) const;

  /// Commit one replayed quantum for a fused lane straight from the slot
  /// arenas (the serial replay path minus the redundant work).
  void fused_step(Lane& lane, Machine& m);
  /// Commit `quanta` replayed quanta at once for a fused lane whose budget
  /// covers them — slot-major, accumulators in registers. Performs exactly
  /// the per-quantum additions fused_step would, in the same order per
  /// accumulator chain, so the result is bit-identical to `quanta` single
  /// steps.
  void fused_run(Lane& lane, Machine& m, std::uint64_t quanta);
  /// Capture the lane's post-solve state into the slot arenas if the
  /// machine's solve cache is armed and no slot's phase drifted during the
  /// arming step's own commit.
  void try_snapshot(Lane& lane, Machine& m);
  /// Recompute the lane budget from every slot's current phase_remaining().
  /// Valid whenever the lane is fused (each slot is then still inside its
  /// snapshot phase, and the per-quantum increments are unchanged while the
  /// solve cache is armed) — so a lane that stays fused across a whole-run
  /// restart into the same phase re-earns a budget without a snapshot.
  /// Returns the new budget.
  std::uint64_t refill_budget(Lane& lane);

  PhaseConstTable phases_;
  std::vector<Lane> lanes_;
  /// SoA slot arenas, lane-major: lane k owns slots
  /// [lanes_[k].offset, lanes_[k].offset + machine cores). Parallel arrays
  /// so the fused commit loop streams through flat memory.
  std::vector<AppRuntime*> slot_rt_;
  std::vector<CoreTelemetry*> slot_tel_;
  /// Phase *index* each slot was solved for. A slot's solved phase pointer
  /// is &profile->phases[idx] with both profile and vector fixed for an
  /// attached app, so an index compare is exactly the pointer compare the
  /// serial fingerprint makes — without the out-of-line current_phase()
  /// call in the commit loop.
  std::vector<std::size_t> slot_phase_idx_;
  std::vector<double> slot_instr_;   ///< ips * dt, the exact serial product
  std::vector<double> slot_dbytes_;  ///< achieved_bytes_per_sec * dt
  Stats stats_;
};

}  // namespace dicer::sim

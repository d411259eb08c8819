// Application profiles: the analytic stand-ins for SPEC CPU 2006 / PARSEC
// 3.0 binaries.
//
// A profile is a sequence of *phases* (the paper's phase-change detector,
// Eq. 2, exists precisely because real applications move between phases
// with different cache appetites [Sherwood et al.]). Each phase pins down
// everything the machine model needs:
//
//   cpi_core   cycles/instruction spent outside the LLC/memory system
//   api        LLC accesses per instruction (post-L2 filter)
//   mrc        miss ratio vs. effective LLC bytes held
//   wb_ratio   extra write-back traffic per miss (0.0 .. ~1.0)
//
// One full execution retires the sum of phase instruction counts; the
// harness restarts finished apps per the paper's methodology (§4.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cache/mrc.hpp"

namespace dicer::sim {

struct AppPhase {
  std::string name;               ///< e.g. "init", "stream", "solve"
  double instructions = 1e9;      ///< retired instructions in this phase
  double cpi_core = 0.6;          ///< non-memory CPI component
  double api = 0.002;             ///< LLC accesses per instruction
  MissRatioCurve mrc;             ///< miss ratio vs. occupancy bytes
  double wb_ratio = 0.3;          ///< write-back bytes per miss byte
  double mlp = 2.0;               ///< memory-level parallelism: overlapped
                                  ///< misses divide exposed memory latency
};

/// Broad behaviour class — used for catalog construction and reporting.
enum class AppClass {
  kComputeBound,   ///< low api: povray, namd, gromacs, swaptions...
  kCacheFriendly,  ///< knee within a few ways: gcc, bzip2, astar...
  kCacheHungry,    ///< knee near/beyond the LLC: mcf, omnetpp, xalan...
  kStreaming,      ///< little reuse, high bandwidth: lbm, libquantum, milc...
};

const char* to_string(AppClass c) noexcept;

struct AppProfile {
  std::string name;      ///< paper workload name, e.g. "milc1", "gcc_base3"
  std::string suite;     ///< "SPEC CPU 2006" or "PARSEC 3.0"
  AppClass app_class = AppClass::kCacheFriendly;
  std::vector<AppPhase> phases;

  double total_instructions() const noexcept;
  /// Average LLC accesses/instruction weighted by phase length.
  double mean_api() const noexcept;
};

/// Executes an AppProfile: tracks phase position, retired instructions and
/// completions; restarts from phase 0 when a run finishes.
class AppRuntime {
 public:
  explicit AppRuntime(const AppProfile* profile);

  const AppProfile& profile() const noexcept { return *profile_; }
  const AppPhase& current_phase() const noexcept {
    return profile_->phases[phase_];
  }
  std::size_t phase_index() const noexcept { return phase_; }

  /// Retire `instructions`; crosses phase boundaries and whole-run restarts
  /// as needed. Returns the number of runs completed during this advance.
  /// The stay-within-phase case is inlined; boundary crossings take the
  /// out-of-line slow path. The fast-path predicate and additions are
  /// exactly the ones advance_slow's loop performs, so splitting changes
  /// no result bit.
  unsigned advance(double instructions) {
    if (fits(instructions, into_phase_)) {
      retired_total_ += instructions;
      into_phase_ += instructions;
      return 0;
    }
    return advance_slow(instructions);
  }
  /// advance()'s within-phase predicate: `instructions` retired `into`
  /// instructions into the current phase stay inside it.
  bool fits(double instructions, double into) const noexcept {
    return instructions > 0.0 &&
           instructions < profile_->phases[phase_].instructions - into;
  }

  std::uint64_t completions() const noexcept { return completions_; }

  double instructions_retired_total() const noexcept { return retired_total_; }
  /// Progress through the current run, in [0, 1).
  double run_progress() const noexcept;

  void reset();

 private:
  /// Machine commits the within-phase quanta of a run in closed form
  /// (Machine::write_run), writing the two accumulators directly.
  friend class Machine;

  /// The full phase-walking advance (boundary crossings and restarts).
  unsigned advance_slow(double instructions);

  const AppProfile* profile_;
  std::size_t phase_ = 0;
  double into_phase_ = 0.0;  ///< instructions retired within current phase
  double retired_total_ = 0.0;
  std::uint64_t completions_ = 0;
};

}  // namespace dicer::sim

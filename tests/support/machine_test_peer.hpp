// The test-side view into sim::Machine (a friend of it): the reference
// stepping path the equivalence tests compare against, the solve
// tolerance, the solver state, and the quantum map F with its Jacobian, so
// tests can check the solver against independent computations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/machine.hpp"

namespace dicer::sim {

struct MachineTestPeer {
  /// Steps `m` with its replay cache disarmed, so the quantum runs the
  /// full fixed point — the pre-shortcut solve path. Clearing the flag
  /// directly (not via an actuator) counts no invalidation, so the
  /// reference's solver stats stay those of a machine that never replays.
  static void step_without_replay(Machine& m) {
    m.solve_cache_.armed = false;
    m.step();
  }
  /// Quanta, at most `limit`, run_until would commit in bulk before its
  /// next step(); it takes the bulk path whenever this is positive (and no
  /// kQuantum subscriber listens).
  static std::uint64_t replay_room(const Machine& m, std::uint64_t limit) {
    return m.replay_room(limit);
  }
  /// The relative residual the machine's solves converge to.
  static double& tolerance(Machine& m) { return m.tolerance_; }

  /// The solver state of the last quantum: active cores, their phases, and
  /// the IPS (`ips`, in core order) that evaluate_map and jacobian work
  /// at, with the occupancy and link state the last evaluation there
  /// left. Valid after a step() that solved, until the next actuation.
  static StepScratch& scratch(Machine& m) { return m.scratch_; }
  /// scratch(m)'s IPS, one per active slot; writes go to the machine.
  static std::span<double> ips(Machine& m) {
    return {m.scratch_.ips, m.scratch_.n};
  }
  /// Per core, the IPS the next solve warm-starts from (0: none yet).
  static std::vector<double> ips_seed(const Machine& m) {
    std::vector<double> seed;
    for (unsigned c = 0; c < m.num_cores(); ++c) {
      seed.push_back(m.cores_[c].ips_seed);
    }
    return seed;
  }
  /// F at scratch(m).ips.
  static std::vector<double> evaluate_map(Machine& m) {
    std::vector<double> target(m.scratch_.n);
    m.evaluate(target.data());
    return target;
  }
  /// The analytic dF/dx at scratch(m).ips, row-major: the solver's
  /// D + U V^T expanded into a dense n x n matrix. `rank`, if given,
  /// receives the columns of U and V.
  static std::vector<double> jacobian(Machine& m,
                                      std::size_t* rank = nullptr) {
    const auto target = evaluate_map(m);
    const std::size_t n = target.size();
    std::vector<double> diag(n), jac(n * n);
    std::vector<double> u(n * Machine::kMaxJacobianTerms), v(u.size());
    const std::size_t r = m.jacobian(target.data(), diag.data(), u.data(),
                                     v.data());
    for (std::size_t i = 0; i < n; ++i) {
      jac[i * n + i] = diag[i];
      for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t c = 0; c < r; ++c) {
          jac[i * n + k] += u[c * n + i] * v[c * n + k];
        }
      }
    }
    if (rank != nullptr) *rank = r;
    return jac;
  }
  /// The solver's Newton step at scratch(m).ips: F there into `target`
  /// and the d solving (I - J) d = F - x (empty if the solver finds the
  /// system singular).
  static std::vector<double> newton_step(Machine& m,
                                         std::vector<double>& target) {
    target = evaluate_map(m);
    const auto x = ips(m);
    std::vector<double> g(x.size()), d(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) g[i] = target[i] - x[i];
    if (!m.newton_step(target.data(), g.data(), d.data())) return {};
    return d;
  }
};

}  // namespace dicer::sim

// Checks of the Newton quantum solve's parts. The analytic Jacobian of the
// coupled cache/link map F is compared with central differences of F in
// states that exercise each of its terms — the shared-region occupancy
// coupling, the link's congestion knee and its oversubscription stretch,
// and an MBA throttle. The solver's structured Newton step must match a
// dense elimination on that Jacobian. A hard re-solve after an actuation
// must take few rounds and land on the fixed point a far tighter solve
// finds, and every solve under random churn must land where the
// Anderson-mixing iteration it replaced does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/cache/way_mask.hpp"
#include "sim/core/catalog.hpp"
#include "sim/machine.hpp"
#include "support/machine_test_peer.hpp"
#include "util/rng.hpp"

namespace dicer::sim {
namespace {

const AppProfile& app(const char* name) {
  return default_catalog().by_name(name);
}

/// dF/dx at the machine's solved point by central differences, column k
/// from x +- h e_k with h = 1e-6 x_k.
std::vector<double> central_differences(Machine& m) {
  const auto x = MachineTestPeer::ips(m);
  const std::size_t n = x.size();
  std::vector<double> fd(n * n);
  for (std::size_t k = 0; k < n; ++k) {
    const double x0 = x[k];
    const double up = x0 * (1.0 + 1e-6);
    const double down = x0 * (1.0 - 1e-6);
    x[k] = up;
    const auto f_up = MachineTestPeer::evaluate_map(m);
    x[k] = down;
    const auto f_down = MachineTestPeer::evaluate_map(m);
    x[k] = x0;
    for (std::size_t i = 0; i < n; ++i) {
      fd[i * n + k] = (f_up[i] - f_down[i]) / (up - down);
    }
  }
  return fd;
}

/// Steps `m` once (a solve) and requires the analytic Jacobian at the
/// solution to match central differences to 1e-5 of each row's largest
/// entry. Returns the Jacobian for the caller's checks on its structure.
std::vector<double> expect_jacobian_matches(Machine& m) {
  m.step();
  EXPECT_EQ(m.solver_stats().solves, 1u);
  const auto jac = MachineTestPeer::jacobian(m);
  const auto fd = central_differences(m);
  const std::size_t n = MachineTestPeer::ips(m).size();
  for (std::size_t i = 0; i < n; ++i) {
    double scale = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      scale = std::max(scale, std::fabs(fd[i * n + k]));
    }
    EXPECT_GT(scale, 0.0) << "row " << i;
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_LE(std::fabs(jac[i * n + k] - fd[i * n + k]), 1e-5 * scale)
          << "J[" << i << "][" << k << "] = " << jac[i * n + k]
          << ", central difference " << fd[i * n + k];
    }
  }
  return jac;
}

TEST(MachineJacobian, IsolatedHpAndBesInSharedRegions) {
  // The HP alone on 12 ways; six BEs share 4 ways, three of them 4 more:
  // two filling regions whose sharers push each other out.
  Machine m{MachineConfig{}};
  m.attach(0, &app("omnetpp1"));
  m.set_fill_mask(0, WayMask::high(12, 20));
  for (unsigned c = 1; c < 7; ++c) {
    m.attach(c, &app(c % 2 == 0 ? "gcc_base3" : "bzip22"));
    m.set_fill_mask(c, WayMask::low(c < 4 ? 8 : 4));
  }
  ASSERT_EQ(m.current_regions().size(), 3u);
  const auto jac = expect_jacobian_matches(m);
  // BE 1 and BE 4 share a region: each one's IPS moves the other's.
  EXPECT_NE(jac[1 * 7 + 4], 0.0);
  EXPECT_NE(jac[4 * 7 + 1], 0.0);
}

TEST(MachineJacobian, LinkBelowTheKnee) {
  Machine m{MachineConfig{}};
  m.attach(0, &app("milc1"));
  for (unsigned c = 1; c < 10; ++c) m.attach(c, &app("gcc_base3"));
  expect_jacobian_matches(m);
  EXPECT_GT(m.last_link_utilisation(), 0.2);
  EXPECT_LT(m.last_link_utilisation(), 1.0);
}

TEST(MachineJacobian, OversubscribedLink) {
  Machine m{MachineConfig{}};
  m.attach(0, &app("omnetpp1"));
  for (unsigned c = 1; c < 10; ++c) m.attach(c, &app("lbm1"));
  expect_jacobian_matches(m);
  EXPECT_GT(m.last_link_utilisation(), 1.0);  // raw rho
}

TEST(MachineJacobian, MbaThrottledCore) {
  Machine m{MachineConfig{}};
  m.attach(0, &app("milc1"));
  for (unsigned c = 1; c < 6; ++c) m.attach(c, &app("lbm1"));
  m.set_mem_throttle(3, 0.4);
  expect_jacobian_matches(m);
}

TEST(MachineJacobian, MaskFlipUnderSaturationResolvesInFewRounds) {
  // An HP and nine link-saturating BEs: each mask flip moves every
  // occupancy and the link's load at once. Newton's method must re-solve
  // each in at most 6 evaluations, to within 1e-8 of a solve whose
  // tolerance is a thousandfold tighter.
  Machine m{MachineConfig{}}, tight{MachineConfig{}};
  MachineTestPeer::tolerance(tight) = MachineTestPeer::tolerance(m) / 1000.0;
  for (Machine* x : {&m, &tight}) {
    x->attach(0, &app("omnetpp1"));
    for (unsigned c = 1; c < 10; ++c) x->attach(c, &app("lbm1"));
    x->run_until(x->quantum() + 50);
  }
  auto near = [](double a, double b) {
    return std::fabs(a - b) <= 1e-8 * std::max(std::fabs(a), std::fabs(b));
  };
  for (unsigned flip = 0; flip < 4; ++flip) {
    const bool partitioned = flip % 2 == 0;
    for (Machine* x : {&m, &tight}) {
      x->set_fill_mask(0, partitioned ? WayMask::high(19, 20)
                                      : WayMask::full(20));
      for (unsigned c = 1; c < 10; ++c) {
        x->set_fill_mask(c, partitioned ? WayMask::low(1) : WayMask::full(20));
      }
    }
    const SolverStats before = m.solver_stats();
    m.step();
    tight.step();
    const SolverStats& after = m.solver_stats();
    ASSERT_EQ(after.solves, before.solves + 1) << "flip " << flip;
    EXPECT_EQ(after.stable_solves, before.stable_solves + 1) << "flip " << flip;
    EXPECT_LE(after.total_rounds() - before.total_rounds(), 6u)
        << "flip " << flip;
    EXPECT_TRUE(near(m.last_link_utilisation(), tight.last_link_utilisation()))
        << "flip " << flip;
    for (unsigned c = 0; c < 10; ++c) {
      EXPECT_TRUE(near(m.telemetry(c).last_quantum_ipc,
                       tight.telemetry(c).last_quantum_ipc))
          << "core " << c << " flip " << flip;
      EXPECT_TRUE(near(m.telemetry(c).occupancy_bytes,
                       tight.telemetry(c).occupancy_bytes))
          << "core " << c << " flip " << flip;
    }
    m.run_until(m.quantum() + 10);
    tight.run_until(tight.quantum() + 10);
  }
  EXPECT_GT(m.last_link_utilisation(), 1.0);
}

/// (I - J) d = g for a dense row-major J, by Gaussian elimination with
/// partial pivoting: the test-side oracle for the solver's Woodbury step.
std::vector<double> dense_step(std::vector<double> jac, std::vector<double> g) {
  const std::size_t n = g.size();
  for (std::size_t i = 0; i < n * n; ++i) jac[i] = -jac[i];
  for (std::size_t i = 0; i < n; ++i) jac[i * n + i] += 1.0;
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t p = c;
    for (std::size_t r = c + 1; r < n; ++r) {
      if (std::fabs(jac[r * n + c]) > std::fabs(jac[p * n + c])) p = r;
    }
    for (std::size_t k = 0; k < n; ++k) {
      std::swap(jac[c * n + k], jac[p * n + k]);
    }
    std::swap(g[c], g[p]);
    for (std::size_t r = c + 1; r < n; ++r) {
      const double f = jac[r * n + c] / jac[c * n + c];
      for (std::size_t k = c; k < n; ++k) jac[r * n + k] -= f * jac[c * n + k];
      g[r] -= f * g[c];
    }
  }
  for (std::size_t c = n; c-- > 0;) {
    for (std::size_t k = c + 1; k < n; ++k) g[c] -= jac[c * n + k] * g[k];
    g[c] /= jac[c * n + c];
  }
  return g;
}

/// Solves `m` once, moves the IPS off the fixed point, and follows the
/// solver's Newton iteration from there: every step must match the dense
/// oracle on the expanded Jacobian to 1e-12 of its largest entry. Returns
/// the widest U V^T the steps used.
std::size_t expect_steps_match_dense(Machine& m) {
  m.step();
  const auto x = MachineTestPeer::ips(m);
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    x[i] *= 1.0 + 0.3 * std::sin(static_cast<double>(i) + 1.0);
  }
  std::size_t rank = 0;
  unsigned steps = 0;
  for (; steps < 8; ++steps) {
    std::vector<double> target;
    const auto d = MachineTestPeer::newton_step(m, target);
    std::vector<double> g(n);
    double res = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      g[i] = target[i] - x[i];
      res = std::max(res, std::fabs(g[i]) / x[i]);
    }
    if (res < 1e-12) break;
    std::size_t r = 0;
    const auto jac = MachineTestPeer::jacobian(m, &r);
    rank = std::max(rank, r);
    const auto ref = dense_step(jac, g);
    EXPECT_EQ(d.size(), n) << "step " << steps << ": singular";
    if (d.size() != n) break;
    double scale = 0.0;
    for (double v : ref) scale = std::max(scale, std::fabs(v));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(std::fabs(d[i] - ref[i]), 1e-12 * scale)
          << "step " << steps << ", slot " << i << ": " << d[i]
          << " against the dense " << ref[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = x[i] + d[i] > 0.0 ? x[i] + d[i] : x[i] + 0.5 * g[i];
    }
  }
  EXPECT_GT(steps, 0u);
  return rank;
}

TEST(MachineJacobian, StructuredStepMatchesDenseSolve) {
  {
    SCOPED_TRACE("shared regions");
    Machine m{MachineConfig{}};
    m.attach(0, &app("omnetpp1"));
    m.set_fill_mask(0, WayMask::high(12, 20));
    for (unsigned c = 1; c < 7; ++c) {
      m.attach(c, &app(c % 2 == 0 ? "gcc_base3" : "bzip22"));
      m.set_fill_mask(c, WayMask::low(c < 4 ? 8 : 4));
    }
    EXPECT_GE(expect_steps_match_dense(m), 3u);
  }
  {
    SCOPED_TRACE("link knee");
    Machine m{MachineConfig{}};
    m.attach(0, &app("milc1"));
    for (unsigned c = 1; c < 10; ++c) m.attach(c, &app("gcc_base3"));
    expect_steps_match_dense(m);
  }
  {
    SCOPED_TRACE("oversubscribed link");
    Machine m{MachineConfig{}};
    m.attach(0, &app("omnetpp1"));
    for (unsigned c = 1; c < 10; ++c) m.attach(c, &app("lbm1"));
    expect_steps_match_dense(m);
  }
  {
    SCOPED_TRACE("MBA throttle");
    Machine m{MachineConfig{}};
    m.attach(0, &app("milc1"));
    for (unsigned c = 1; c < 6; ++c) m.attach(c, &app("lbm1"));
    m.set_mem_throttle(3, 0.4);
    expect_steps_match_dense(m);
  }
  {
    // Churn's machines: an HP alone, or with one BE. The terms then
    // outnumber the cores.
    SCOPED_TRACE("one app");
    Machine m{MachineConfig{}};
    m.attach(0, &app("milc1"));
    EXPECT_GE(expect_steps_match_dense(m), 1u);
  }
  {
    SCOPED_TRACE("two apps");
    Machine m{MachineConfig{}};
    m.attach(0, &app("omnetpp1"));
    m.attach(1, &app("lbm1"));
    EXPECT_GE(expect_steps_match_dense(m), 2u);
  }
}

/// The reference solve: Anderson-accelerated mixing (depth 3, mixing 0.5,
/// halved on a residual increase down to 0.25, with a history restart),
/// the fixed-point iteration Newton's method replaced. Runs on `m`'s
/// scratch from the IPS in it, with the production stopping test, and
/// returns the converged IPS (empty if it hit `max_rounds`).
std::vector<double> anderson_solve(Machine& m, double tolerance,
                                   unsigned max_rounds) {
  constexpr std::size_t kDepth = 3;
  const auto x = MachineTestPeer::ips(m);
  const std::size_t n = x.size();
  // The residual scale, as the solver used it.
  const std::vector<double> w(x.begin(), x.end());
  std::vector<double> g(n), prev_x(n), prev_g(n);
  std::vector<std::vector<double>> dx, dg;  // newest first
  double beta = 0.5, prev_res = 0.0;
  for (unsigned round = 0; round < max_rounds; ++round) {
    const auto target = MachineTestPeer::evaluate_map(m);
    double res = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      g[i] = target[i] - x[i];
      res = std::max(res, std::fabs(g[i]) / x[i]);
    }
    if (res < tolerance) return {x.begin(), x.end()};
    if (round > 0 && res > prev_res) {
      dx.clear();
      dg.clear();
      beta = std::max(0.5 * beta, 0.25);
    } else if (round > 0) {
      std::vector<double> sx(n), sg(n);
      for (std::size_t i = 0; i < n; ++i) {
        sx[i] = x[i] - prev_x[i];
        sg[i] = g[i] - prev_g[i];
      }
      dx.insert(dx.begin(), sx);
      dg.insert(dg.begin(), sg);
      if (dx.size() > kDepth) {
        dx.pop_back();
        dg.pop_back();
      }
    }
    prev_res = res;
    prev_x.assign(x.begin(), x.end());
    prev_g = g;
    // gamma = argmin ||(g - dg gamma) / w|| by modified Gram-Schmidt,
    // cut at the first (nearly) dependent column.
    std::vector<std::vector<double>> q;
    std::vector<std::vector<double>> r(kDepth, std::vector<double>(kDepth));
    for (std::size_t j = 0; j < dg.size(); ++j) {
      std::vector<double> v(n);
      double norm0 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = dg[j][i] / w[i];
        norm0 += v[i] * v[i];
      }
      for (std::size_t k = 0; k < j; ++k) {
        double dot = 0.0;
        for (std::size_t i = 0; i < n; ++i) dot += q[k][i] * v[i];
        r[k][j] = dot;
        for (std::size_t i = 0; i < n; ++i) v[i] -= dot * q[k][i];
      }
      double norm = 0.0;
      for (std::size_t i = 0; i < n; ++i) norm += v[i] * v[i];
      if (!(norm > 1e-20 * norm0)) break;
      norm = std::sqrt(norm);
      r[j][j] = norm;
      for (std::size_t i = 0; i < n; ++i) v[i] /= norm;
      q.push_back(v);
    }
    const std::size_t used = q.size();
    std::vector<double> gamma(used);
    for (std::size_t k = used; k-- > 0;) {
      double b = 0.0;
      for (std::size_t i = 0; i < n; ++i) b += q[k][i] * (g[i] / w[i]);
      for (std::size_t j = k + 1; j < used; ++j) b -= r[k][j] * gamma[j];
      gamma[k] = b / r[k][k];
    }
    std::vector<double> next(n);
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = x[i] + beta * g[i];
      for (std::size_t j = 0; j < used; ++j) {
        next[i] -= gamma[j] * (dx[j][i] + beta * dg[j][i]);
      }
      ok = ok && std::isfinite(next[i]) && next[i] > 0.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = ok ? next[i] : x[i] + beta * g[i];
    }
  }
  return {};
}

TEST(MachineJacobian, NewtonLandsWhereAndersonMixingDoes) {
  // Under random actuator churn, every solve is repeated from the same
  // warm start by the Anderson-mixing reference (a test-side oracle), at
  // the same tolerance: the IPS, occupancies and link utilisation of the
  // two solutions must agree to 1e-8 relative. The reference runs on the
  // machine's own scratch, which is then restored, so the machine's run
  // is the one an unobserved machine would take.
  const auto& catalog = default_catalog();
  Machine m{MachineConfig{}};
  util::Xoshiro256 rng(0xA11DE25ULL);
  auto rel = [](double a, double b) {
    return std::fabs(a - b) / std::max(std::fabs(a), std::fabs(b));
  };
  std::uint64_t compared = 0;
  for (unsigned interval = 0; interval < 400; ++interval) {
    const unsigned core = static_cast<unsigned>(rng.below(m.num_cores()));
    switch (rng.below(3)) {
      case 0:
        if (m.occupied(core)) {
          m.detach(core);
        } else {
          m.attach(core, &catalog.at(static_cast<std::size_t>(rng.below(59))));
        }
        break;
      case 1: {
        const unsigned width = 1 + static_cast<unsigned>(rng.below(20));
        const unsigned shift = static_cast<unsigned>(rng.below(21 - width));
        m.set_fill_mask(core, WayMask::span(shift, width));
        break;
      }
      default:
        m.set_mem_throttle(core, rng.uniform(0.2, 1.0));
        break;
    }
    for (unsigned q = 0; q < 20; ++q) {
      const std::vector<double> seed = MachineTestPeer::ips_seed(m);
      const std::uint64_t solves = m.solver_stats().solves;
      m.step();
      if (m.solver_stats().solves == solves) continue;  // replayed
      auto& s = MachineTestPeer::scratch(m);
      const std::size_t n = s.n;
      const std::vector<double> x(s.ips, s.ips + n);
      const std::vector<double> occ(s.occ, s.occ + n);
      const double rho = s.arb.raw_utilisation;
      for (std::size_t i = 0; i < n; ++i) {  // the solve's warm start
        const double w = seed[s.active[i]];
        s.ips[i] =
            w > 0.0 ? w : m.config().freq_hz / (s.phase[i]->cpi_core + 1.0);
      }
      const auto ref = anderson_solve(m, MachineTestPeer::tolerance(m),
                                      m.config().fixed_point_rounds);
      ASSERT_EQ(ref.size(), n) << "the reference did not converge";
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_LE(rel(x[i], ref[i]), 1e-8) << "ips, slot " << i;
        EXPECT_LE(rel(occ[i], s.occ[i]), 1e-8) << "occupancy, slot " << i;
      }
      EXPECT_LE(rel(rho, s.arb.raw_utilisation), 1e-8) << "rho";
      std::copy(x.begin(), x.end(), s.ips);  // the machine's own solution
      MachineTestPeer::evaluate_map(m);
      ++compared;
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(compared, 300u);
}

}  // namespace
}  // namespace dicer::sim

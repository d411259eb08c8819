#include "harness/consolidation.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "harness/solo.hpp"
#include "policy/baselines.hpp"
#include "policy/factory.hpp"
#include "sim/core/catalog.hpp"

namespace dicer::harness {
namespace {

const sim::AppProfile& app(const char* name) {
  return sim::default_catalog().by_name(name);
}

TEST(Consolidation, ValidatesCoreCount) {
  policy::Unmanaged um;
  ConsolidationConfig cfg;
  cfg.cores_used = 1;
  EXPECT_THROW(run_consolidation(app("namd1"), app("namd1"), um, cfg),
               std::invalid_argument);
  cfg.cores_used = 11;
  EXPECT_THROW(run_consolidation(app("namd1"), app("namd1"), um, cfg),
               std::invalid_argument);
}

TEST(Consolidation, ResultFieldsPopulated) {
  policy::Unmanaged um;
  ConsolidationConfig cfg;
  cfg.cores_used = 4;
  const auto res = run_consolidation(app("gcc_base3"), app("namd1"), um, cfg);
  EXPECT_EQ(res.policy, "UM");
  EXPECT_EQ(res.be_ipcs.size(), 3u);
  EXPECT_GT(res.hp_ipc, 0.0);
  EXPECT_GT(res.be_ipc_mean, 0.0);
  EXPECT_GE(res.window_sec, cfg.min_window_sec);
  EXPECT_GE(res.hp_completions, 1u);
  EXPECT_GE(res.be_completions, 3u);
  EXPECT_FALSE(res.window_capped);
  EXPECT_GE(res.avg_link_utilisation, 0.0);
  EXPECT_LE(res.avg_link_utilisation, 1.0);
}

TEST(Consolidation, EveryoneExecutesAtLeastOnce) {
  // The paper's restart-until-everyone-finishes methodology (4.1).
  policy::CacheTakeover ct;
  ConsolidationConfig cfg;
  cfg.cores_used = 10;
  const auto res = run_consolidation(app("milc1"), app("gcc_base3"), ct, cfg);
  EXPECT_GE(res.hp_completions, 1u);
  EXPECT_GE(res.be_completions, 9u);
}

TEST(Consolidation, WindowCapTriggersOnStarvedBes) {
  policy::CacheTakeover ct;
  ConsolidationConfig cfg;
  cfg.cores_used = 10;
  cfg.max_window_sec = 5.0;  // nothing finishes in five seconds
  const auto res = run_consolidation(app("milc1"), app("gcc_base3"), ct, cfg);
  EXPECT_TRUE(res.window_capped);
  EXPECT_NEAR(res.window_sec, 5.0, 6.0);  // first policy interval may overrun
}

TEST(Consolidation, IpcPairsLayout) {
  ConsolidationResult res;
  res.hp_ipc = 0.8;
  res.be_ipcs = {0.5, 0.6};
  const auto pairs = res.ipc_pairs(1.0, 1.2);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_DOUBLE_EQ(pairs[0].alone, 1.0);
  EXPECT_DOUBLE_EQ(pairs[0].colocated, 0.8);
  EXPECT_DOUBLE_EQ(pairs[1].alone, 1.2);
  EXPECT_DOUBLE_EQ(pairs[2].colocated, 0.6);
}

TEST(Consolidation, CoLocatedIpcNeverBeatsSoloByMuch) {
  const ConsolidationConfig cfg;
  const double hp_alone =
      solo_steady_state(app("omnetpp1"), 20, cfg.machine).ipc;
  policy::Unmanaged um;
  const auto res = run_consolidation(app("omnetpp1"), app("gcc_base3"), um, cfg);
  EXPECT_LE(res.hp_ipc, hp_alone * 1.02);
}

TEST(Consolidation, IdenticalBesGetIdenticalIpc) {
  policy::Unmanaged um;
  ConsolidationConfig cfg;
  cfg.cores_used = 6;
  const auto res = run_consolidation(app("milc1"), app("bzip22"), um, cfg);
  for (double be : res.be_ipcs) {
    EXPECT_NEAR(be, res.be_ipc_mean, 0.01 * res.be_ipc_mean);
  }
}

void expect_same_result(const ConsolidationResult& a,
                        const ConsolidationResult& b, std::size_t i) {
  EXPECT_EQ(a.policy, b.policy) << "cell " << i;
  EXPECT_EQ(a.window_sec, b.window_sec) << "cell " << i;
  EXPECT_EQ(a.window_capped, b.window_capped) << "cell " << i;
  EXPECT_EQ(a.hp_ipc, b.hp_ipc) << "cell " << i;
  EXPECT_EQ(a.be_ipc_mean, b.be_ipc_mean) << "cell " << i;
  EXPECT_EQ(a.be_ipcs, b.be_ipcs) << "cell " << i;
  EXPECT_EQ(a.hp_completions, b.hp_completions) << "cell " << i;
  EXPECT_EQ(a.be_completions, b.be_completions) << "cell " << i;
  EXPECT_EQ(a.avg_link_utilisation, b.avg_link_utilisation) << "cell " << i;
  EXPECT_EQ(a.solver.quanta, b.solver.quanta) << "cell " << i;
  EXPECT_EQ(a.solver.replays, b.solver.replays) << "cell " << i;
  EXPECT_EQ(a.solver.solves, b.solver.solves) << "cell " << i;
  EXPECT_EQ(a.solver.stable_solves, b.solver.stable_solves) << "cell " << i;
  EXPECT_EQ(a.solver.invalidations_actuator, b.solver.invalidations_actuator)
      << "cell " << i;
  EXPECT_EQ(a.solver.invalidations_fingerprint,
            b.solver.invalidations_fingerprint)
      << "cell " << i;
  EXPECT_EQ(a.solver.rounds_hist, b.solver.rounds_hist) << "cell " << i;
}

TEST(ConsolidationGrid, MixedPoliciesAndCoresMatchSerialExactly) {
  // One chunk mixing policies, apps and core counts on one worker: every
  // cell's result — IPCs, window, completions, link utilisation and the
  // full solver-stat vector — equals run_consolidation's bit for bit, so
  // neither the chunk nor its shared policy build changes a result.
  struct Spec {
    const char* hp;
    const char* be;
    const char* policy;
    unsigned cores;
  };
  const std::vector<Spec> specs = {
      {"milc1", "gcc_base3", "UM", 4},
      {"omnetpp1", "gcc_base3", "DICER", 6},
      {"namd1", "bzip22", "CT", 3},
      {"milc1", "gcc_base3", "DICER", 4},
  };
  std::vector<GridCell> cells;
  for (const auto& s : specs) cells.push_back({&app(s.hp), &app(s.be), s.cores});
  ConsolidationConfig base;
  base.cores_used = 0;  // ignored: every cell overrides
  std::vector<ConsolidationResult> out(cells.size());
  run_consolidation_grid(
      cells, [&](std::size_t i) { return policy::make_policy(specs[i].policy); },
      [&](std::size_t i, const ConsolidationResult& res, const policy::Policy&) {
        out[i] = res;
      },
      base, /*jobs=*/1);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    ConsolidationConfig cfg = base;
    cfg.cores_used = specs[i].cores;
    const auto pol = policy::make_policy(specs[i].policy);
    expect_same_result(
        out[i], run_consolidation(app(specs[i].hp), app(specs[i].be), *pol, cfg),
        i);
  }
}

TEST(ConsolidationGrid, ResultsComeBackInCellOrder) {
  // Mixed apps, core counts and policies over 12 cells — a full chunk of
  // 8 and a partial one — on four workers: every cell's result lands in
  // its own slot and equals the plain run_consolidation bit for bit.
  const std::vector<const char*> policies = {"UM", "DICER", "CT"};
  std::vector<GridCell> cells;
  for (const char* hp : {"milc1", "omnetpp1"}) {
    for (unsigned cores : {3u, 5u}) {
      for (std::size_t p = 0; p < policies.size(); ++p) {
        cells.push_back({&app(hp), &app("gcc_base3"), cores});
      }
    }
  }
  const ConsolidationConfig base;
  std::vector<ConsolidationResult> out(cells.size());
  std::vector<std::string> names(cells.size());
  run_consolidation_grid(
      cells,
      [&](std::size_t i) {
        return policy::make_policy(policies[i % policies.size()]);
      },
      [&](std::size_t i, const ConsolidationResult& res,
          const policy::Policy& pol) {
        out[i] = res;
        names[i] = pol.name();
      },
      base, /*jobs=*/4);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    ConsolidationConfig cfg = base;
    cfg.cores_used = cells[i].cores_used;
    const auto pol = policy::make_policy(policies[i % policies.size()]);
    const auto serial =
        run_consolidation(*cells[i].hp, *cells[i].be, *pol, cfg);
    EXPECT_EQ(names[i], policies[i % policies.size()]) << "cell " << i;
    expect_same_result(out[i], serial, i);
  }
}

TEST(ConsolidationGrid, RethrowsFirstFailingCellInIndexOrder) {
  // Four chunks of 8: cells 11 and 27 fail (chunks 1 and 3), chunks 0 and
  // 2 complete, so a fully completed chunk sits between the two failures.
  const std::vector<GridCell> cells(32, {&app("namd1"), &app("bzip22"), 2});
  ASSERT_EQ(kGridChunkCells, 8u);
  for (unsigned jobs : {1u, 4u}) {
    std::atomic<int> done_calls{0};
    try {
      run_consolidation_grid(
          cells,
          [](std::size_t i) -> std::unique_ptr<policy::Policy> {
            if (i == 11 || i == 27) {
              throw std::runtime_error("cell " + std::to_string(i));
            }
            return policy::make_policy("UM");
          },
          [&](std::size_t, const ConsolidationResult&,
              const policy::Policy&) { ++done_calls; },
          {}, jobs);
      ADD_FAILURE() << "no exception at jobs " << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 11") << "jobs " << jobs;
    }
    // A failing policy build aborts its whole chunk. Serially the grid
    // stops at the first failing chunk (only chunk 0 reported); in parallel
    // every other chunk still completes before the rethrow (chunks 0, 2).
    EXPECT_EQ(done_calls.load(), jobs == 1 ? 8 : 16) << "jobs " << jobs;
  }
}

TEST(ConsolidationGrid, EmptyGridRunsNothing) {
  bool called = false;
  run_consolidation_grid(
      {},
      [&](std::size_t) -> std::unique_ptr<policy::Policy> {
        called = true;
        return nullptr;
      },
      [&](std::size_t, const ConsolidationResult&, const policy::Policy&) {
        called = true;
      },
      {}, 4);
  EXPECT_FALSE(called);
}

TEST(ConsolidationGrid, OneCellGridMatchesSerial) {
  ConsolidationConfig base;
  base.cores_used = 4;
  std::vector<ConsolidationResult> out;
  run_consolidation_grid(
      {{&app("milc1"), &app("lbm1"), 4}},
      [](std::size_t) { return policy::make_policy("DICER"); },
      [&](std::size_t i, const ConsolidationResult& res,
          const policy::Policy&) {
        EXPECT_EQ(i, 0u);
        out.push_back(res);
      },
      base, 4);
  ASSERT_EQ(out.size(), 1u);
  const auto pol = policy::make_policy("DICER");
  expect_same_result(
      out[0], run_consolidation(app("milc1"), app("lbm1"), *pol, base), 0);
}

TEST(Consolidation, DeterministicRepeats) {
  ConsolidationConfig cfg;
  cfg.cores_used = 5;
  policy::CacheTakeover a, b;
  const auto r1 = run_consolidation(app("soplex1"), app("gcc_base2"), a, cfg);
  const auto r2 = run_consolidation(app("soplex1"), app("gcc_base2"), b, cfg);
  EXPECT_DOUBLE_EQ(r1.hp_ipc, r2.hp_ipc);
  EXPECT_DOUBLE_EQ(r1.be_ipc_mean, r2.be_ipc_mean);
  EXPECT_DOUBLE_EQ(r1.window_sec, r2.window_sec);
}

TEST(Consolidation, MbaPlatformFlagWiresController) {
  ConsolidationConfig cfg;
  cfg.cores_used = 4;
  cfg.enable_mba = true;
  const auto pol = policy::make_policy("DICER+MBA");
  EXPECT_NO_THROW(run_consolidation(app("milc1"), app("lbm1"), *pol, cfg));
  // And without the flag the MBA policy must fail loudly.
  cfg.enable_mba = false;
  const auto pol2 = policy::make_policy("DICER+MBA");
  EXPECT_THROW(run_consolidation(app("milc1"), app("lbm1"), *pol2, cfg),
               std::invalid_argument);
}

// The paper's three-policy comparison on a known CT-Favoured workload:
// CT and DICER must protect the HP better than UM, and DICER must give the
// BEs more than CT does.
TEST(Consolidation, PolicyOrderingOnCtFavouredWorkload) {
  ConsolidationConfig cfg;
  const auto um = run_consolidation(app("omnetpp1"), app("gcc_base3"),
                                    *policy::make_policy("UM"), cfg);
  const auto ct = run_consolidation(app("omnetpp1"), app("gcc_base3"),
                                    *policy::make_policy("CT"), cfg);
  const auto dicer = run_consolidation(app("omnetpp1"), app("gcc_base3"),
                                       *policy::make_policy("DICER"), cfg);
  EXPECT_GT(ct.hp_ipc, um.hp_ipc);
  EXPECT_GT(dicer.hp_ipc, um.hp_ipc);
  EXPECT_GT(dicer.be_ipc_mean, ct.be_ipc_mean);
}

// And on the paper's CT-Thwarted example (Fig 3): CT must hurt the HP
// relative to UM, and DICER must avoid CT's mistake.
TEST(Consolidation, PolicyOrderingOnCtThwartedWorkload) {
  ConsolidationConfig cfg;
  const auto um = run_consolidation(app("milc1"), app("gcc_base3"),
                                    *policy::make_policy("UM"), cfg);
  const auto ct = run_consolidation(app("milc1"), app("gcc_base3"),
                                    *policy::make_policy("CT"), cfg);
  const auto dicer = run_consolidation(app("milc1"), app("gcc_base3"),
                                       *policy::make_policy("DICER"), cfg);
  EXPECT_LT(ct.hp_ipc, um.hp_ipc);
  EXPECT_GT(dicer.hp_ipc, ct.hp_ipc);
}

}  // namespace
}  // namespace dicer::harness

// Golden trace tests: the controller's decision sequence, observed through
// the dicer::trace subsystem, must match its DicerStats counters exactly —
// every counter increment is one typed event — and serialise to
// byte-identical JSONL across repetitions.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/consolidation.hpp"
#include "policy/dicer.hpp"
#include "policy/host.hpp"
#include "sim/core/catalog.hpp"
#include "util/trace.hpp"

namespace dicer::policy {
namespace {

std::size_t count_kind(const std::vector<trace::Event>& events,
                       trace::Kind kind) {
  std::size_t n = 0;
  for (const auto& e : events) {
    if (e.kind == kind) ++n;
  }
  return n;
}

std::size_t count_validate_outcome(const std::vector<trace::Event>& events,
                                   const std::string& outcome) {
  std::size_t n = 0;
  for (const auto& e : events) {
    if (e.kind == trace::Kind::kResetValidate &&
        trace::field_string(e, "outcome") == outcome) {
      ++n;
    }
  }
  return n;
}

struct ScenarioResult {
  std::vector<trace::Event> events;
  DicerStats stats;
  unsigned final_hp_ways = 0;
  bool ct_favoured = true;
};

/// Drive one scripted consolidation with a private tracer capturing every
/// default-mask event the controller emits.
ScenarioResult run_scenario(const char* hp, const char* be, double seconds,
                            const DicerConfig& cfg = {}) {
  trace::Tracer tracer;
  auto sink = std::make_shared<trace::MemorySink>();
  tracer.add_sink(sink);

  const auto& catalog = sim::default_catalog();
  Host host({.tracer = &tracer}, catalog.by_name(hp), &catalog.by_name(be));
  Dicer dicer(cfg);
  dicer.setup(host.context());
  while (host.machine().time_sec() < seconds) host.step(dicer);
  tracer.remove_sink(sink);
  return {sink->take(), dicer.stats(), dicer.hp_ways(), dicer.ct_favoured()};
}

std::string serialize(const std::vector<trace::Event>& events) {
  std::string out;
  for (const auto& e : events) out += trace::to_jsonl(e) + '\n';
  return out;
}

TEST(DicerTrace, SetupEmitsOneSetupEventFirst) {
  const auto r = run_scenario("omnetpp1", "namd1", 2.0);
  ASSERT_FALSE(r.events.empty());
  const auto& e = r.events.front();
  EXPECT_EQ(e.kind, trace::Kind::kSetup);
  EXPECT_EQ(trace::field_string(e, "policy"), "DICER");
  EXPECT_EQ(trace::field_uint(e, "hp_ways"), 19u);
  EXPECT_EQ(trace::field_uint(e, "total_ways"), 20u);
  EXPECT_DOUBLE_EQ(trace::field_double(e, "period_sec"), 1.0);
  EXPECT_EQ(count_kind(r.events, trace::Kind::kSetup), 1u);
  // The first period snapshot is interpreted in the warmup state.
  const auto& p = r.events[1];
  ASSERT_EQ(p.kind, trace::Kind::kPeriod);
  EXPECT_EQ(trace::field_uint(p, "period"), 1u);
  EXPECT_EQ(trace::field_string(p, "state"), "warmup");
  EXPECT_EQ(trace::field_string(p, "class"), "CT-F");
}

// CT-Favoured scripted scenario (omnetpp vs compute-light namd): stable
// IPC, no saturation — the controller donates ways. Every DicerStats
// counter increment must appear as exactly one typed event.
TEST(DicerTrace, CtFavouredEventCountsMatchStats) {
  const auto r = run_scenario("omnetpp1", "namd1", 8.0);
  EXPECT_TRUE(r.ct_favoured);
  EXPECT_GT(r.stats.way_donations, 0u);
  EXPECT_EQ(count_kind(r.events, trace::Kind::kPeriod), r.stats.periods);
  EXPECT_EQ(count_kind(r.events, trace::Kind::kDonation),
            r.stats.way_donations);
  EXPECT_EQ(count_kind(r.events, trace::Kind::kSamplingStart),
            r.stats.samplings);
  EXPECT_EQ(count_kind(r.events, trace::Kind::kSamplingStep),
            r.stats.sampling_steps);
  EXPECT_EQ(count_kind(r.events, trace::Kind::kPhaseReset),
            r.stats.phase_resets);
  EXPECT_EQ(count_kind(r.events, trace::Kind::kPerfReset),
            r.stats.perf_resets);
  EXPECT_EQ(count_validate_outcome(r.events, "rollback"), r.stats.rollbacks);
}

// CT-Thwarted scripted scenario (milc vs nine lbm): the link saturates,
// the controller reclassifies and samples.
TEST(DicerTrace, CtThwartedEventCountsMatchStats) {
  const auto r = run_scenario("milc1", "lbm1", 10.0);
  EXPECT_FALSE(r.ct_favoured);
  ASSERT_GE(r.stats.samplings, 1u);
  EXPECT_EQ(count_kind(r.events, trace::Kind::kPeriod), r.stats.periods);
  EXPECT_EQ(count_kind(r.events, trace::Kind::kSamplingStart),
            r.stats.samplings);
  EXPECT_EQ(count_kind(r.events, trace::Kind::kSamplingStep),
            r.stats.sampling_steps);
  EXPECT_EQ(count_kind(r.events, trace::Kind::kPhaseReset),
            r.stats.phase_resets);
  EXPECT_EQ(count_kind(r.events, trace::Kind::kPerfReset),
            r.stats.perf_resets);
  EXPECT_EQ(count_validate_outcome(r.events, "rollback"), r.stats.rollbacks);
  // Completed plans report their optimum; a sampling can only finish once.
  EXPECT_LE(count_kind(r.events, trace::Kind::kSamplingDone),
            r.stats.samplings);
  // The first sampling announces the full descending plan from CT ways.
  for (const auto& e : r.events) {
    if (e.kind != trace::Kind::kSamplingStart) continue;
    EXPECT_EQ(trace::field_uint(e, "sampling"), 1u);
    EXPECT_EQ(trace::field_string(e, "plan").substr(0, 2), "19");
    break;
  }
}

// Allocation events are a complete, gap-free account of every way change:
// each event's `from` is the previous event's `to`, starting at the setup
// allocation and ending at the controller's final allocation.
TEST(DicerTrace, AllocationEventsChainWithoutGaps) {
  const auto r = run_scenario("milc1", "lbm1", 10.0);
  std::uint64_t current = trace::field_uint(r.events.front(), "hp_ways");
  std::size_t changes = 0;
  for (const auto& e : r.events) {
    if (e.kind != trace::Kind::kAllocation) continue;
    EXPECT_EQ(trace::field_uint(e, "from"), current) << "gap in chain";
    current = trace::field_uint(e, "to");
    EXPECT_NE(trace::field_uint(e, "from"), current) << "no-op allocation";
    ++changes;
  }
  EXPECT_GT(changes, 0u);
  EXPECT_EQ(current, r.final_hp_ways);
}

// Every donation is materialised: a kDonation is followed by the
// kAllocation that applies it.
TEST(DicerTrace, DonationsAreApplied) {
  const auto r = run_scenario("omnetpp1", "namd1", 8.0);
  for (std::size_t i = 0; i < r.events.size(); ++i) {
    if (r.events[i].kind != trace::Kind::kDonation) continue;
    ASSERT_LT(i + 1, r.events.size());
    const auto& next = r.events[i + 1];
    ASSERT_EQ(next.kind, trace::Kind::kAllocation);
    EXPECT_EQ(trace::field_uint(next, "from"),
              trace::field_uint(r.events[i], "from"));
    EXPECT_EQ(trace::field_uint(next, "to"),
              trace::field_uint(r.events[i], "to"));
  }
}

// The acceptance bar for --trace: identical runs serialise to
// byte-identical JSONL (events carry simulated time only).
TEST(DicerTrace, JsonlByteIdenticalAcrossRuns) {
  const auto a = run_scenario("milc1", "lbm1", 6.0);
  const auto b = run_scenario("milc1", "lbm1", 6.0);
  const std::string ja = serialize(a.events);
  const std::string jb = serialize(b.events);
  ASSERT_FALSE(ja.empty());
  EXPECT_EQ(ja, jb);
  const auto c = run_scenario("omnetpp1", "namd1", 6.0);
  const auto d = run_scenario("omnetpp1", "namd1", 6.0);
  EXPECT_EQ(serialize(c.events), serialize(d.events));
}

// Tracing must observe, never perturb: the controller's decisions are
// identical with and without a sink attached.
TEST(DicerTrace, TracingDoesNotChangeControllerBehaviour) {
  auto run_untraced = [] {
    const auto& catalog = sim::default_catalog();
    Host host(HostConfig{}, catalog.by_name("milc1"), &catalog.by_name("lbm1"));
    Dicer dicer;
    dicer.setup(host.context());
    while (host.machine().time_sec() < 8.0) host.step(dicer);
    return dicer.stats();
  };
  const auto traced = run_scenario("milc1", "lbm1", 8.0);
  const auto plain = run_untraced();
  EXPECT_EQ(traced.stats.periods, plain.periods);
  EXPECT_EQ(traced.stats.samplings, plain.samplings);
  EXPECT_EQ(traced.stats.sampling_steps, plain.sampling_steps);
  EXPECT_EQ(traced.stats.way_donations, plain.way_donations);
  EXPECT_EQ(traced.stats.phase_resets, plain.phase_resets);
  EXPECT_EQ(traced.stats.perf_resets, plain.perf_resets);
  EXPECT_EQ(traced.stats.rollbacks, plain.rollbacks);
}

// Harness integration: run_consolidation brackets the policy's events
// with run_begin/run_end carrying the workload and the results.
TEST(DicerTrace, ConsolidationRunIsBracketed) {
  trace::Tracer tracer;
  auto sink = std::make_shared<trace::MemorySink>();
  tracer.add_sink(sink);
  const auto& catalog = sim::default_catalog();
  Dicer dicer;
  harness::ConsolidationConfig cfg;
  cfg.cores_used = 4;
  cfg.tracer = &tracer;
  const auto res = harness::run_consolidation(
      catalog.by_name("omnetpp1"), catalog.by_name("namd1"), dicer, cfg);
  tracer.remove_sink(sink);
  const auto events = sink->take();
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front().kind, trace::Kind::kRunBegin);
  EXPECT_EQ(trace::field_string(events.front(), "hp"), "omnetpp1");
  EXPECT_EQ(trace::field_uint(events.front(), "cores"), 4u);
  EXPECT_EQ(events.back().kind, trace::Kind::kRunEnd);
  EXPECT_DOUBLE_EQ(trace::field_double(events.back(), "hp_ipc"), res.hp_ipc);
  EXPECT_EQ(events[1].kind, trace::Kind::kSetup);
  EXPECT_EQ(count_kind(events, trace::Kind::kPeriod), dicer.stats().periods);
}

}  // namespace
}  // namespace dicer::policy

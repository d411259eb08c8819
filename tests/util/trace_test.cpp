#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "support/temp_path.hpp"
#include "util/thread_pool.hpp"

namespace dicer::trace {
namespace {

/// A builder handing over a ready field list, for terse test emits.
auto fields(std::vector<Field> f) {
  return [f = std::move(f)]() mutable { return std::move(f); };
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(TraceKinds, NamesAreUniqueAndKnown) {
  std::vector<std::string> names;
  for (unsigned k = 0; k < static_cast<unsigned>(Kind::kCount); ++k) {
    const std::string n = kind_name(static_cast<Kind>(k));
    EXPECT_NE(n, "?") << "kind " << k << " missing from kind_name";
    for (const auto& prev : names) EXPECT_NE(n, prev);
    names.push_back(n);
  }
}

TEST(TraceKinds, DefaultMaskExcludesVerboseKinds) {
  EXPECT_EQ(kDefaultKinds & mask_of(Kind::kQuantum), 0u);
  EXPECT_EQ(kDefaultKinds & mask_of(Kind::kMonitorPoll), 0u);
  EXPECT_EQ(kDefaultKinds & mask_of(Kind::kTimer), 0u);
  EXPECT_NE(kDefaultKinds & mask_of(Kind::kPeriod), 0u);
  EXPECT_NE(kDefaultKinds & mask_of(Kind::kDonation), 0u);
  EXPECT_EQ(kDefaultKinds & ~kAllKinds, 0u);
}

TEST(TraceEvent, FieldLookupAndConversions) {
  Event e{Kind::kPeriod, 2.5,
          {{"ipc", 1.25},
           {"ways", 19u},
           {"delta", -3},
           {"sat", true},
           {"state", "steady"}}};
  EXPECT_NE(find_field(e, "ipc"), nullptr);
  EXPECT_EQ(find_field(e, "nope"), nullptr);
  EXPECT_DOUBLE_EQ(field_double(e, "ipc"), 1.25);
  EXPECT_DOUBLE_EQ(field_double(e, "ways"), 19.0);   // uint -> double
  EXPECT_DOUBLE_EQ(field_double(e, "delta"), -3.0);  // int -> double
  EXPECT_DOUBLE_EQ(field_double(e, "nope", 7.0), 7.0);
  EXPECT_EQ(field_uint(e, "ways"), 19u);
  EXPECT_EQ(field_uint(e, "delta", 42), 42u);  // negative -> default
  EXPECT_TRUE(field_bool(e, "sat"));
  EXPECT_FALSE(field_bool(e, "state", false));  // type mismatch -> default
  EXPECT_EQ(field_string(e, "state"), "steady");
  EXPECT_EQ(field_string(e, "ipc", "x"), "x");
}

TEST(TraceEvent, JsonlFormat) {
  Event e{Kind::kDonation, 5.0,
          {{"from", 19u}, {"to", 18u}, {"hp_ipc", 1.5}, {"ok", true}}};
  EXPECT_EQ(to_jsonl(e),
            "{\"t\":5,\"kind\":\"donation\",\"from\":19,\"to\":18,"
            "\"hp_ipc\":1.5,\"ok\":true}");
}

TEST(TraceEvent, JsonlEscapesStrings) {
  Event e{Kind::kSetup, 0.0, {{"name", "a\"b\\c\nd"}}};
  EXPECT_EQ(to_jsonl(e),
            "{\"t\":0,\"kind\":\"setup\",\"name\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(TraceEvent, DoublesSerialiseDeterministically) {
  Event e{Kind::kPeriod, 1.0 / 3.0, {{"bw", 49.999999e9}}};
  const std::string a = to_jsonl(e);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(to_jsonl(e), a);
}

TEST(Tracer, DisabledWithoutSinks) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  EXPECT_FALSE(t.enabled(Kind::kPeriod));
  t.emit(Kind::kPeriod, 0.0, fields({}));  // a harmless no-op
}

TEST(Tracer, SinkAttachDetachTogglesEnabled) {
  Tracer t;
  auto sink = std::make_shared<MemorySink>();
  t.add_sink(sink);
  EXPECT_TRUE(t.enabled(Kind::kPeriod));
  EXPECT_FALSE(t.enabled(Kind::kQuantum)) << "verbose kind on by default";
  t.remove_sink(sink);
  EXPECT_FALSE(t.enabled());
  t.remove_sink(sink);  // removing twice is a no-op
}

TEST(Tracer, KindMaskFiltersAtEmitToo) {
  Tracer t;
  auto sink = std::make_shared<MemorySink>();
  t.add_sink(sink);
  t.set_kinds(mask_of(Kind::kDonation));
  EXPECT_TRUE(t.enabled(Kind::kDonation));
  EXPECT_FALSE(t.enabled(Kind::kPeriod));
  // Unconditional emits (no enabled() guard) must still be filtered.
  t.emit(Kind::kPeriod, 1.0, fields({}));
  t.emit(Kind::kDonation, 2.0, fields({{"from", 19u}, {"to", 18u}}));
  ASSERT_EQ(sink->events().size(), 1u);
  EXPECT_EQ(sink->events()[0].kind, Kind::kDonation);
}

TEST(Tracer, MultipleSinksEachReceiveEveryEvent) {
  Tracer t;
  auto a = std::make_shared<MemorySink>();
  auto b = std::make_shared<MemorySink>();
  t.add_sink(a);
  t.add_sink(b);
  t.emit(Kind::kSetup, 0.0, fields({{"policy", "DICER"}}));
  t.emit(Kind::kPeriod, 1.0, fields({{"hp_ipc", 1.5}}));
  ASSERT_EQ(a->events().size(), 2u);
  ASSERT_EQ(b->events().size(), 2u);
  EXPECT_EQ(field_string(a->events()[0], "policy"), "DICER");
  EXPECT_DOUBLE_EQ(field_double(b->events()[1], "hp_ipc"), 1.5);
}

TEST(Tracer, GlobalTracerHasNoSinksByDefault) {
  // The process-global tracer must stay disabled unless a test/bench
  // explicitly installs a sink — this is the near-zero-cost default path.
  EXPECT_FALSE(Tracer::global().enabled());
  EXPECT_EQ(&resolve(nullptr), &Tracer::global());
  Tracer local;
  EXPECT_EQ(&resolve(&local), &local);
}

TEST(TraceSinks, JsonlFileRoundTrip) {
  const std::string path = test::unique_temp_path("trace_test.jsonl");
  std::remove(path.c_str());
  {
    Tracer t;
    t.add_sink(std::make_shared<JsonlSink>(path));
    t.emit(Kind::kSetup, 0.0,
           fields({{"policy", "DICER"}, {"hp_ways", 19u}}));
    t.emit(Kind::kDonation, 3.0, fields({{"from", 19u}, {"to", 18u}}));
    t.clear_sinks();  // flushes
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "{\"t\":0,\"kind\":\"setup\",\"policy\":\"DICER\","
            "\"hp_ways\":19}");
  EXPECT_EQ(lines[1],
            "{\"t\":3,\"kind\":\"donation\",\"from\":19,\"to\":18}");
  std::remove(path.c_str());
}

TEST(TraceSinks, FileSinkThrowsOnUnwritablePath) {
  EXPECT_THROW(JsonlSink("/nonexistent-dir/x.jsonl"), std::runtime_error);
}

TEST(TraceSinks, MemorySinkTakeDrains) {
  MemorySink sink;
  sink.write(Event{Kind::kSetup, 0.0, {}});
  const auto taken = sink.take();
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_TRUE(sink.events().empty());
}

// The concurrency guarantee the parallel sweep relies on: many threads
// emitting into one tracer, every event delivered whole and none lost.
// Run under -DDICER_SANITIZE=thread in CI.
TEST(Tracer, ConcurrentEmitDeliversWholeEvents) {
  Tracer t;
  auto sink = std::make_shared<MemorySink>();
  t.add_sink(sink);
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 250;
  {
    util::ThreadPool pool(kThreads);
    std::vector<std::future<void>> futs;
    for (unsigned w = 0; w < kThreads; ++w) {
      futs.push_back(pool.submit([&t, w] {
        for (unsigned i = 0; i < kPerThread; ++i) {
          t.emit(Kind::kPeriod, static_cast<double>(i),
                 fields({{"worker", w},
                         {"seq", i},
                         {"check", w * 1000u + i}}));
        }
      }));
    }
    for (auto& f : futs) f.get();
  }
  t.remove_sink(sink);
  const auto events = sink->take();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  std::vector<unsigned> next_seq(kThreads, 0);
  for (const auto& e : events) {
    const auto w = field_uint(e, "worker");
    const auto seq = field_uint(e, "seq");
    ASSERT_LT(w, kThreads);
    // Whole-event delivery: the three fields belong to one emit call...
    EXPECT_EQ(field_uint(e, "check"), w * 1000 + seq);
    // ...and each thread's events arrive in its emission order.
    EXPECT_EQ(seq, next_seq[w]);
    next_seq[w] = static_cast<unsigned>(seq) + 1;
  }
}

}  // namespace
}  // namespace dicer::trace

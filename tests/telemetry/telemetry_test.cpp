#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/exposition.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_counter_sink.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace dicer::telemetry {
namespace {

TEST(TelemetryHistogram, BoundariesAreGeometric) {
  HistogramSpec spec;
  spec.first_bound = 0.5;
  spec.growth = 2.0;
  spec.buckets = 4;
  Histogram h(spec);
  EXPECT_DOUBLE_EQ(h.upper_bound(0), 0.5);
  EXPECT_DOUBLE_EQ(h.upper_bound(1), 1.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(2), 2.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(3), 4.0);
  EXPECT_TRUE(std::isinf(h.upper_bound(4)));
  EXPECT_EQ(h.num_buckets(), 4u);
}

TEST(TelemetryHistogram, RejectsInvalidSpec) {
  HistogramSpec bad;
  bad.growth = 1.0;  // must be > 1
  EXPECT_THROW(Histogram{bad}, std::invalid_argument);
  bad = HistogramSpec{};
  bad.first_bound = 0.0;
  EXPECT_THROW(Histogram{bad}, std::invalid_argument);
  bad = HistogramSpec{};
  bad.buckets = 0;
  EXPECT_THROW(Histogram{bad}, std::invalid_argument);
}

TEST(TelemetryHistogram, LeSemanticsMatchPrometheus) {
  HistogramSpec spec;
  spec.first_bound = 1.0;
  spec.growth = 2.0;
  spec.buckets = 3;  // bounds 1, 2, 4, +Inf
  Histogram h(spec);
  h.record(1.0);  // le="1": on the boundary lands below it
  h.record(1.5);  // le="2"
  h.record(4.0);  // le="4"
  h.record(5.0);  // +Inf
  h.record(0.1);  // le="1"
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 11.6);
  EXPECT_DOUBLE_EQ(h.min(), 0.1);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
}

TEST(TelemetryHistogram, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

// The histogram answers percentile queries from bucket counts alone, so it
// can only be exact to a bucket's width — but the rank convention matches
// util::stats::percentile, so on a dense sample the two agree to within
// one bucket's relative resolution.
TEST(TelemetryHistogram, PercentileTracksExactStats) {
  HistogramSpec spec;
  spec.first_bound = 0.02;
  spec.growth = 1.06;
  spec.buckets = 100;
  Histogram h(spec);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    // Smooth monotone ramp over [0.1, ~2.1].
    const double v = 0.1 + 2.0 * static_cast<double>(i) / 999.0;
    xs.push_back(v);
    h.record(v);
  }
  for (double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    const double exact = util::percentile(xs, p);
    const double approx = h.percentile(p);
    // One bucket's relative width (growth - 1) plus interpolation slack.
    EXPECT_NEAR(approx, exact, exact * (spec.growth - 1.0) + 1e-9)
        << "p" << p;
  }
  // The extremes clamp to the observed min/max exactly.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.1);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), h.max());
}

TEST(TelemetryHistogram, ResetZeroesEverything) {
  Histogram h;
  h.record(0.5);
  h.record(2.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  for (unsigned i = 0; i <= h.num_buckets(); ++i) {
    EXPECT_EQ(h.bucket_count(i), 0u);
  }
}

/// Every observable of `got` equals `want` bit for bit: buckets, count,
/// sum, min, max and percentiles.
void expect_same_bits(const Histogram& got, const Histogram& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(got.num_buckets(), want.num_buckets());
  for (unsigned i = 0; i <= want.num_buckets(); ++i) {
    EXPECT_EQ(got.bucket_count(i), want.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(bits(got.sum()), bits(want.sum()));
  EXPECT_EQ(bits(got.min()), bits(want.min()));
  EXPECT_EQ(bits(got.max()), bits(want.max()));
  for (const double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(bits(got.percentile(p)), bits(want.percentile(p))) << "p" << p;
  }
}

/// Records `values` in batches of 0, 1, 2, ... samples with record_all()
/// and one sample at a time with record(), comparing every bit after each
/// batch.
void expect_batches_match(const HistogramSpec& spec,
                          const std::vector<double>& values) {
  Histogram batched(spec);
  Histogram each(spec);
  std::size_t at = 0;
  for (std::size_t len = 0; at < values.size(); ++len) {
    const std::size_t n = std::min(len, values.size() - at);
    batched.record_all({values.data() + at, n});
    for (std::size_t k = at; k < at + n; ++k) each.record(values[k]);
    at += n;
    SCOPED_TRACE("after " + std::to_string(at) + " samples");
    expect_same_bits(batched, each);
  }
}

constexpr HistogramSpec kSmallSpec{1.0, 2.0, 6};  // bounds 1 .. 32, +Inf

// A batch leaves what one record() per sample leaves, bit for bit: on
// the bucket bounds and either side of them, on signed zeros and
// negative values, and on a long run of random magnitudes.
TEST(HistogramRecordAll, MatchesPerSampleRecordBitForBit) {
  const Histogram layout(kSmallSpec);
  std::vector<double> values{0.0, -0.0, -3.0, 1e-300};
  for (unsigned i = 0; i < layout.num_buckets(); ++i) {
    const double b = layout.upper_bound(i);
    values.insert(values.end(), {b, std::nextafter(b, 0.0),
                                 std::nextafter(b, 1e9), -b});
  }
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 400; ++i) {
    values.push_back(std::ldexp(rng.uniform(), static_cast<int>(
                                                   rng.below(12)) - 3));
  }
  expect_batches_match(kSmallSpec, values);
  expect_batches_match(HistogramSpec{}, values);
  // Signed zeros inside one batch: the first of equal extremes stays.
  expect_batches_match(kSmallSpec, {5.0, 0.0, -0.0, 3.0});
  expect_batches_match(kSmallSpec, {-5.0, -0.0, 0.0, -3.0});
}

// Infinities land in the +Inf and first buckets and pin min/max; NaN lands
// in bucket 0, never wins min or max, and poisons the sum the same way.
TEST(HistogramRecordAll, MatchesPerSampleRecordOnInfAndNaN) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  expect_batches_match(kSmallSpec, {kInf, 3.0, -kInf, 0.5, 64.0, 2.0});
  expect_batches_match(kSmallSpec, {2.0, kNaN, 5.0, 0.25, kNaN, 40.0});
  expect_batches_match(kSmallSpec, {kNaN, kNaN, kNaN});
  expect_batches_match(kSmallSpec, {kInf, kInf, -kInf, kNaN, -kInf});
}

TEST(HistogramRecordAll, EmptySpanRecordsNothing) {
  Histogram h(kSmallSpec);
  const Histogram fresh(kSmallSpec);
  h.record_all({});
  expect_same_bits(h, fresh);
  Histogram want(kSmallSpec);
  for (Histogram* x : {&h, &want}) {
    x->record(3.0);
    x->record(0.5);
  }
  h.record_all({});
  expect_same_bits(h, want);
}

TEST(TelemetryRegistry, RegisterOrFetchIsIdempotent) {
  Registry r;
  Counter& c1 = r.counter("dicer_x_total", "help");
  Counter& c2 = r.counter("dicer_x_total");
  EXPECT_EQ(&c1, &c2);
  c1.inc(3);
  EXPECT_EQ(c2.value(), 3u);
  Gauge& g1 = r.gauge("dicer_g");
  EXPECT_EQ(&g1, &r.gauge("dicer_g"));
  Histogram& h1 = r.histogram("dicer_h");
  EXPECT_EQ(&h1, &r.histogram("dicer_h"));
  EXPECT_EQ(r.size(), 3u);
}

TEST(TelemetryRegistry, TypeConflictThrows) {
  Registry r;
  r.counter("dicer_x");
  EXPECT_THROW(r.gauge("dicer_x"), std::invalid_argument);
  EXPECT_THROW(r.histogram("dicer_x"), std::invalid_argument);
  r.histogram("dicer_h");
  HistogramSpec other;
  other.buckets = 5;
  EXPECT_THROW(r.histogram("dicer_h", other), std::invalid_argument);
}

TEST(TelemetryRegistry, BadNameThrows) {
  Registry r;
  EXPECT_THROW(r.counter(""), std::invalid_argument);
  EXPECT_THROW(r.counter("9starts_with_digit"), std::invalid_argument);
  EXPECT_THROW(r.counter("has-dash"), std::invalid_argument);
  EXPECT_THROW(r.counter("has space"), std::invalid_argument);
  r.counter("ok_name:with_colon_0");  // full Prometheus charset
}

TEST(TelemetryRegistry, EntriesAreNameSorted) {
  Registry r;
  r.counter("zzz_total");
  r.gauge("aaa");
  r.histogram("mmm");
  const auto entries = r.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "aaa");
  EXPECT_EQ(entries[1].name, "mmm");
  EXPECT_EQ(entries[2].name, "zzz_total");
  EXPECT_NE(entries[0].gauge, nullptr);
  EXPECT_NE(entries[1].histogram, nullptr);
  EXPECT_NE(entries[2].counter, nullptr);
}

TEST(TelemetryExposition, PrometheusFormat) {
  Registry r;
  r.counter("dicer_ops_total", "operations").inc(42);
  r.gauge("dicer_level").set(0.5);
  HistogramSpec spec;
  spec.first_bound = 1.0;
  spec.growth = 2.0;
  spec.buckets = 2;  // bounds 1, 2, +Inf
  auto& h = r.histogram("dicer_lat", spec, "latency");
  h.record(0.5);
  h.record(3.0);
  const std::string text = to_prometheus(r);
  EXPECT_NE(text.find("# HELP dicer_ops_total operations\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dicer_ops_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("dicer_ops_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dicer_level gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dicer_lat histogram\n"), std::string::npos);
  // Cumulative buckets: le="1" holds 1, le="2" still 1, +Inf all 2.
  EXPECT_NE(text.find("dicer_lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("dicer_lat_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("dicer_lat_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("dicer_lat_sum 3.5\n"), std::string::npos);
  EXPECT_NE(text.find("dicer_lat_count 2\n"), std::string::npos);
  // Name order: dicer_lat block comes before dicer_level before ops.
  EXPECT_LT(text.find("dicer_lat_bucket"), text.find("dicer_level"));
  EXPECT_LT(text.find("dicer_level"), text.find("dicer_ops_total 42"));
}

TEST(TelemetryExposition, WritePrometheusIsAtomicAndReadable) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "dicer_telemetry_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "metrics.prom").string();
  Registry r;
  r.counter("x_total").inc(1);
  write_prometheus(r, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, to_prometheus(r));
  // No temp droppings left next to the output.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
  // Unwritable directory reports, not corrupts.
  EXPECT_THROW(write_prometheus(r, "/nonexistent_dir_zz/m.prom"),
               std::runtime_error);
}

TEST(TelemetryTraceCounterSink, CountsEventsPerKind) {
  Registry r;
  trace::Tracer tracer;
  auto sink = std::make_shared<TraceCounterSink>(r);
  tracer.add_sink(sink);
  const auto no_fields = [] { return std::vector<trace::Field>{}; };
  tracer.emit(trace::Kind::kAllocation, 0.0, no_fields);
  tracer.emit(trace::Kind::kAllocation, 0.1, no_fields);
  tracer.emit(trace::Kind::kMigration, 0.2, no_fields);
  tracer.remove_sink(sink);
  EXPECT_EQ(r.counter("dicer_events_allocation_total").value(), 2u);
  EXPECT_EQ(r.counter("dicer_events_migration_total").value(), 1u);
  EXPECT_EQ(r.counter("dicer_events_placement_total").value(), 0u);
  // After removal the sink no longer counts.
  tracer.emit(trace::Kind::kAllocation, 0.3, no_fields);
  EXPECT_EQ(r.counter("dicer_events_allocation_total").value(), 2u);
}

// A count-only sink alone never makes an emission site build its fields;
// a recording sink beside it makes each event built exactly once, and the
// counts do not move either way.
TEST(Tracer, CountingSinkNeverBuildsFields) {
  Registry r;
  trace::Tracer tracer;
  tracer.add_sink(std::make_shared<TraceCounterSink>(r));
  unsigned builds = 0;
  const auto build = [&builds] {
    ++builds;
    return std::vector<trace::Field>{{"hp_ways", 10}};
  };
  const auto emit_round = [&] {
    for (int i = 0; i < 3; ++i) tracer.emit(trace::Kind::kPeriod, 0.0, build);
    tracer.emit(trace::Kind::kDonation, 0.0, build);
    tracer.emit(trace::Kind::kQuantum, 0.0, build);  // not in the mask
  };
  const auto counted = [&r](const char* kind) {
    return r.counter(std::string("dicer_events_") + kind + "_total").value();
  };

  emit_round();
  EXPECT_EQ(builds, 0u);
  EXPECT_EQ(counted("period"), 3u);
  EXPECT_EQ(counted("donation"), 1u);
  EXPECT_EQ(counted("quantum"), 0u);
  EXPECT_EQ(tracer.events_counted(), 4u);
  EXPECT_EQ(tracer.events_built(), 0u);

  auto memory = std::make_shared<trace::MemorySink>();
  tracer.add_sink(memory);
  emit_round();
  EXPECT_EQ(builds, 4u) << "each recorded event is built once";
  ASSERT_EQ(memory->events().size(), 4u);
  EXPECT_EQ(trace::field_uint(memory->events()[0], "hp_ways"), 10u);
  EXPECT_EQ(counted("period"), 6u);
  EXPECT_EQ(counted("donation"), 2u);
  EXPECT_EQ(tracer.events_counted(), 8u);
  EXPECT_EQ(tracer.events_built(), 4u);

  tracer.remove_sink(memory);
  emit_round();
  EXPECT_EQ(builds, 4u) << "counting only again";
  EXPECT_EQ(counted("period"), 9u);
  EXPECT_EQ(tracer.events_counted(), 12u);
}

TEST(TelemetryTraceCounterSink, TimerEventsAreIgnored) {
  Registry r;
  TraceCounterSink sink(r);
  // kTimer carries wall-clock durations — nondeterministic, so the sink
  // must neither register nor count it.
  for (const auto& e : r.entries()) {
    EXPECT_EQ(e.name.find("timer"), std::string::npos) << e.name;
  }
  trace::Event ev;
  ev.kind = trace::Kind::kTimer;
  sink.write(ev);  // must not crash or count anything
  std::uint64_t total = 0;
  for (const auto& e : r.entries()) total += e.counter->value();
  EXPECT_EQ(total, 0u);
}

}  // namespace
}  // namespace dicer::telemetry

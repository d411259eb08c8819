// ThreadSanitizer-targeted test: many util::ThreadPool workers hammer one
// Registry — register-or-fetch, counter incs, gauge sets and histogram
// records all racing. CI runs this under TSan (the test-name regex there
// matches "Telemetry"); the assertions below additionally pin that
// integer state is exact under any interleaving.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_counter_sink.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace dicer::telemetry {
namespace {

TEST(TelemetryConcurrency, RegistrySurvivesParallelHammering) {
  constexpr unsigned kWorkers = 8;
  constexpr std::uint64_t kPerWorker = 20'000;
  Registry registry;
  // Pre-register one shared set; workers also register their own names
  // concurrently to exercise the registration path itself.
  Counter& shared_ctr = registry.counter("shared_total");
  Histogram& shared_hist = registry.histogram("shared_dist");

  util::ThreadPool pool(kWorkers);
  std::vector<std::future<void>> futs;
  for (unsigned w = 0; w < kWorkers; ++w) {
    futs.push_back(pool.submit([&, w] {
      Counter& own =
          registry.counter("worker_" + std::to_string(w) + "_total");
      Gauge& gauge = registry.gauge("level");  // shared, last-write-wins
      for (std::uint64_t i = 0; i < kPerWorker; ++i) {
        shared_ctr.inc();
        own.inc();
        gauge.set(static_cast<double>(i));
        shared_hist.record(0.001 *
                           static_cast<double>((w * kPerWorker + i) % 3000));
        // Register-or-fetch on a hot name, mid-flight.
        registry.counter("shared_total").inc(0);
      }
    }));
  }
  for (auto& f : futs) f.get();

  // Integer state is exact regardless of interleaving.
  EXPECT_EQ(shared_ctr.value(), kWorkers * kPerWorker);
  for (unsigned w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(registry.counter("worker_" + std::to_string(w) + "_total")
                  .value(),
              kPerWorker);
  }
  EXPECT_EQ(shared_hist.count(), kWorkers * kPerWorker);
  std::uint64_t bucket_total = 0;
  for (unsigned i = 0; i <= shared_hist.num_buckets(); ++i) {
    bucket_total += shared_hist.bucket_count(i);
  }
  EXPECT_EQ(bucket_total, kWorkers * kPerWorker);
  // entries() snapshots cleanly after the storm.
  EXPECT_EQ(registry.size(), 2u + kWorkers + 1u);
}

TEST(TelemetryConcurrency, HistogramMinMaxAreExactUnderRaces) {
  constexpr unsigned kWorkers = 8;
  Histogram hist;
  util::ThreadPool pool(kWorkers);
  std::vector<std::future<void>> futs;
  for (unsigned w = 0; w < kWorkers; ++w) {
    futs.push_back(pool.submit([&, w] {
      for (int i = 0; i < 10'000; ++i) {
        hist.record(0.01 + 0.001 * static_cast<double>(w) +
                    0.0001 * static_cast<double>(i % 100));
      }
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_DOUBLE_EQ(hist.min(), 0.01);
  EXPECT_DOUBLE_EQ(hist.max(), 0.01 + 0.001 * (kWorkers - 1) + 0.0001 * 99);
  EXPECT_EQ(hist.count(), kWorkers * 10'000u);
}

// Batches racing single samples: half the workers record_all() their
// samples in batches of 7, the other half record() them one at a time.
// Buckets, count, min and max equal one thread recording every sample;
// only the sum's rounding may depend on the interleaving.
TEST(HistogramRecordAll, RacesRecordExactly) {
  constexpr unsigned kWorkers = 8;
  constexpr unsigned kPerWorker = 7'000;
  // One outlier each way: the largest sample is batched (worker 3), the
  // smallest recorded alone (worker 6).
  const auto value = [](unsigned w, unsigned i) {
    const double v = 0.002 * static_cast<double>((w * 7919 + 31 * i) % 5000);
    if (w == 3 && i == 4321) return v + 1e5;
    if (w == 6 && i == 17) return v - 100.0;
    return v;
  };
  Histogram hist;
  util::ThreadPool pool(kWorkers);
  std::vector<std::future<void>> futs;
  for (unsigned w = 0; w < kWorkers; ++w) {
    futs.push_back(pool.submit([&, w] {
      std::vector<double> batch;
      for (unsigned i = 0; i < kPerWorker; ++i) {
        if (w % 2 == 0) {
          hist.record(value(w, i));
          continue;
        }
        batch.push_back(value(w, i));
        if (batch.size() == 7 || i + 1 == kPerWorker) {
          hist.record_all(batch);
          batch.clear();
        }
      }
    }));
  }
  for (auto& f : futs) f.get();

  Histogram want;
  double sum = 0.0;
  for (unsigned w = 0; w < kWorkers; ++w) {
    for (unsigned i = 0; i < kPerWorker; ++i) {
      want.record(value(w, i));
      sum += value(w, i);
    }
  }
  for (unsigned i = 0; i <= want.num_buckets(); ++i) {
    EXPECT_EQ(hist.bucket_count(i), want.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(hist.count(), std::uint64_t{kWorkers} * kPerWorker);
  EXPECT_LT(want.min(), 0.0);    // a record() sample
  EXPECT_GT(want.max(), 1e4);    // a record_all() sample
  EXPECT_EQ(hist.min(), want.min());
  EXPECT_EQ(hist.max(), want.max());
  EXPECT_NEAR(hist.sum(), sum, 1e-9 * sum);
}

// The tracer's lock-free count path: pool tasks emit with only a
// count-only sink attached, and the sink is detached after they join.
// Every event is counted, per kind and in total, and none is built.
TEST(Tracer, ConcurrentCountingIsExact) {
  constexpr unsigned kTasks = 8;
  constexpr std::uint64_t kPerTask = 5'000;
  Registry registry;
  trace::Tracer tracer;
  auto sink = std::make_shared<TraceCounterSink>(registry);
  tracer.add_sink(sink);
  std::atomic<unsigned> builds{0};
  {
    util::ThreadPool pool(4);
    std::vector<std::future<void>> futs;
    for (unsigned w = 0; w < kTasks; ++w) {
      futs.push_back(pool.submit([&] {
        const auto build = [&builds] {
          builds.fetch_add(1, std::memory_order_relaxed);
          return std::vector<trace::Field>{};
        };
        for (std::uint64_t i = 0; i < kPerTask; ++i) {
          tracer.emit(i % 4 == 0 ? trace::Kind::kDonation
                                 : trace::Kind::kPeriod,
                      0.0, build);
        }
      }));
    }
    for (auto& f : futs) f.get();
  }
  tracer.remove_sink(sink);
  tracer.emit(trace::Kind::kPeriod, 0.0, [] {
    return std::vector<trace::Field>{};
  });  // detached: counted by nobody

  EXPECT_EQ(builds.load(), 0u);
  EXPECT_EQ(tracer.events_built(), 0u);
  EXPECT_EQ(tracer.events_counted(), kTasks * kPerTask);
  EXPECT_EQ(registry.counter("dicer_events_donation_total").value(),
            kTasks * kPerTask / 4);
  EXPECT_EQ(registry.counter("dicer_events_period_total").value(),
            kTasks * kPerTask * 3 / 4);
}

}  // namespace
}  // namespace dicer::telemetry

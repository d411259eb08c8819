// dicer::telemetry — the fleet-wide metrics registry.
//
// One Registry holds named counters (monotone uint64), gauges (last-set
// double) and log-scale histograms (telemetry/histogram.hpp). Components
// register metrics once (idempotent — re-registering the same name with
// the same type/spec returns the same handle) and record through stable
// references; exporters walk entries() sorted by name, so exposition is
// deterministic regardless of registration interleaving.
//
// Concurrency & determinism:
//  * inc()/set()/record()/record_all() are lock-free — a registry may be
//    hammered from every util::ThreadPool worker at once (TSan-tested).
//  * Integer state (counters, histogram bucket counts) and histogram
//    min/max are exact under any interleaving, so they are identical at
//    any worker count.
//  * Floating-point sums are order-sensitive; pipelines that promise
//    byte-identical exports therefore record from one thread in a fixed
//    order — fleet::Cluster::reduce records each histogram's per-machine
//    samples in machine-index order, in batches through record_all(),
//    which leaves the bits one record() per sample would.
//
// Exposition lives in telemetry/exposition.hpp (Prometheus text).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/histogram.hpp"

namespace dicer::telemetry {

/// Monotone event counter (Prometheus convention: name it `*_total`).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register-or-fetch. Names must match Prometheus' charset
  /// ([a-zA-Z_:][a-zA-Z0-9_:]*); a name already registered as a different
  /// metric type — or, for histograms, with a different spec — throws
  /// std::invalid_argument. Returned references stay valid for the
  /// registry's lifetime (metrics are never removed).
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name,
                       const HistogramSpec& spec = {},
                       const std::string& help = "");

  /// One registered metric; exactly one of the pointers is non-null.
  struct Entry {
    std::string name;
    std::string help;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };
  /// Every metric, sorted by name (pointers stay valid; values read
  /// through them are live, not snapshotted).
  std::vector<Entry> entries() const;
  std::size_t size() const;

 private:
  struct Metric {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Metric& metric_slot(const std::string& name, const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
};

}  // namespace dicer::telemetry

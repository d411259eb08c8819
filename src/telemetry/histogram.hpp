// Fixed-boundary log-scale histograms for fleet-wide distributions.
//
// The paper's evaluation is distributional — slowdown CDFs (Fig 1), ways
// CDFs (Fig 2), SLO conformance (Fig 7) — and tail-sensitive consolidation
// work (LFOC, CBP) scores policies on max-slowdown/unfairness, so fleet
// telemetry must answer "what is p99 HP slowdown?" cheaply, not just report
// means. A Histogram holds geometrically growing bucket boundaries fixed at
// construction:
//
//   upper_bound(i) = first_bound * growth^i        (i in [0, buckets))
//
// plus one +Inf overflow bucket, and answers interpolated percentile
// queries (p50/p95/p99/max) from the bucket counts alone.
//
// Determinism contract: bucket boundaries are a pure function of the spec,
// bucket counts are integer sums (commutative — any recording order
// yields the same counts), and percentile() is a pure function of the
// counts. The only order-sensitive state is the floating-point `sum`,
// which is why deterministic pipelines record from one thread in a fixed
// order: fleet::Cluster::reduce records its per-machine samples in
// machine-index order, a batch of them per record_all().
//
// Thread safety: record() and record_all() are lock-free (relaxed
// atomics per bucket, CAS min/max/sum), so many util::ThreadPool workers
// may hammer one histogram; concurrent recording keeps counts, min and
// max exact but lets `sum` rounding depend on interleaving. record()
// writes one sample with one read-modify-write each for its bucket, the
// count and `sum`, and one fold each for min and max. record_all()
// writes a batch with one read-modify-write per touched bucket, one for
// the count, one fold each for min and max and one CAS loop that adds the
// batch onto `sum` in span order, so a single writer's state is bit for
// bit what one record() per sample leaves. reset() and readers must not
// race a writer if byte-exact sums matter.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace dicer::telemetry {

/// Log-scale bucket layout. The defaults cover [1e-3, ~8e3] at ~19%
/// relative resolution — wide enough for normalised IPCs, slowdowns,
/// utilisations and period-denominated latencies alike.
struct HistogramSpec {
  double first_bound = 1e-3;  ///< upper bound of the first finite bucket
  double growth = 1.19;       ///< geometric boundary growth, > 1
  unsigned buckets = 96;      ///< finite buckets (an +Inf bucket is implicit)

  static constexpr unsigned kMaxBuckets = 4096;

  bool operator==(const HistogramSpec&) const = default;
  bool valid() const noexcept {
    return first_bound > 0.0 && growth > 1.0 && buckets >= 1 &&
           buckets <= kMaxBuckets;
  }
};

class Histogram {
 public:
  /// Throws std::invalid_argument on an invalid spec.
  explicit Histogram(const HistogramSpec& spec = {});

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Record one sample (thread-safe, lock-free). Values at or below a
  /// boundary land in that boundary's bucket (Prometheus `le` semantics);
  /// values above the last finite boundary land in the +Inf bucket.
  void record(double value) noexcept;
  /// Record every sample of `values` (thread-safe, lock-free): the same
  /// buckets, count, min and max as one record() per sample, and the same
  /// `sum` bits when no other thread records meanwhile. An empty span
  /// records nothing.
  void record_all(std::span<const double> values) noexcept;

  /// Zero every counter, keeping the boundaries.
  void reset() noexcept;

  const HistogramSpec& spec() const noexcept { return spec_; }
  /// Finite buckets (spec().buckets); bucket index spec().buckets is +Inf.
  unsigned num_buckets() const noexcept { return spec_.buckets; }
  /// Upper bound of bucket i; +infinity for i == num_buckets().
  double upper_bound(unsigned i) const noexcept;
  /// Samples in bucket i (non-cumulative), i in [0, num_buckets()].
  std::uint64_t bucket_count(unsigned i) const noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded sample; 0 when empty.
  double min() const noexcept;
  double max() const noexcept;

  /// Linear-interpolation percentile from the bucket counts, p in
  /// [0, 100]. Matches util::stats::percentile's rank convention
  /// (rank = p/100 * (count-1)) to within one bucket's width; exact
  /// min/max clamp the first and last buckets. Returns 0 when empty.
  double percentile(double p) const;

 private:
  unsigned bucket_index(double value) const noexcept;

  HistogramSpec spec_;
  std::vector<double> bounds_;  ///< finite upper bounds, size spec_.buckets
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< size buckets + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

}  // namespace dicer::telemetry

// Statistics used throughout the evaluation: the paper reports geometric
// means (Figs 6, 8), cumulative distributions (Figs 1, 2) and percentiles.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dicer::util {

/// Arithmetic mean. Returns 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Geometric mean. All inputs must be > 0; returns 0 for an empty span.
double gmean(std::span<const double> xs) noexcept;

/// Sample maximum. Returns 0 for an empty span.
double max(std::span<const double> xs) noexcept;

/// Linear-interpolation percentile, p in [0, 100]. Sorts a copy.
double percentile(std::span<const double> xs, double p);

/// Median (50th percentile).
double median(std::span<const double> xs);

/// Fraction of samples <= threshold (the quantity Figs 1-2 plot per x tick).
double cdf_at(std::span<const double> xs, double threshold) noexcept;

/// Fraction of samples satisfying >= threshold (SLO-style conformance).
double fraction_at_least(std::span<const double> xs,
                         double threshold) noexcept;

/// Fixed-capacity ring of the most recent N samples; the paper's phase
/// detector (Eq. 2) needs the geometric mean of the last three monitoring
/// periods' bandwidth.
class RecentWindow {
 public:
  explicit RecentWindow(std::size_t capacity);

  void add(double x);
  void reset() noexcept;

  std::size_t size() const noexcept { return data_.size(); }
  bool full() const noexcept { return data_.size() == capacity_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Geometric mean of the stored samples; 0 if empty or any sample <= 0.
  double gmean() const noexcept;
  double mean() const noexcept;

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // insertion slot once full
  std::vector<double> data_;
};

}  // namespace dicer::util

#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace dicer::util {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double gmean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double logsum = 0.0;
  for (double x : xs) {
    if (x <= 0.0) return 0.0;
    logsum += std::log(x);
  }
  return std::exp(logsum / static_cast<double>(xs.size()));
}

double max(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double cdf_at(std::span<const double> xs, double threshold) noexcept {
  if (xs.empty()) return 0.0;
  std::size_t n = 0;
  for (double x : xs) n += (x <= threshold) ? 1u : 0u;
  return static_cast<double>(n) / static_cast<double>(xs.size());
}

double fraction_at_least(std::span<const double> xs,
                         double threshold) noexcept {
  if (xs.empty()) return 0.0;
  std::size_t n = 0;
  for (double x : xs) n += (x >= threshold) ? 1u : 0u;
  return static_cast<double>(n) / static_cast<double>(xs.size());
}

RecentWindow::RecentWindow(std::size_t capacity)
    : capacity_(capacity ? capacity : 1) {
  data_.reserve(capacity_);
}

void RecentWindow::add(double x) {
  if (data_.size() < capacity_) {
    data_.push_back(x);
  } else {
    data_[head_] = x;
    head_ = (head_ + 1) % capacity_;
  }
}

void RecentWindow::reset() noexcept {
  data_.clear();
  head_ = 0;
}

double RecentWindow::gmean() const noexcept {
  return util::gmean(std::span<const double>(data_));
}

double RecentWindow::mean() const noexcept {
  return util::mean(std::span<const double>(data_));
}

}  // namespace dicer::util

#include "sim/cache/mrc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dicer::sim {

MissRatioCurve::MissRatioCurve(double floor,
                               std::vector<MrcComponent> components)
    : floor_(floor), components_(std::move(components)) {
  if (floor < 0.0 || floor > 1.0) {
    throw std::invalid_argument("MissRatioCurve: floor outside [0,1]");
  }
  double total = floor;
  for (const auto& c : components_) {
    if (c.weight < 0.0) {
      throw std::invalid_argument("MissRatioCurve: negative component weight");
    }
    if (c.ws_bytes <= 0.0) {
      throw std::invalid_argument("MissRatioCurve: working set must be > 0");
    }
    if (!(c.shape > 0.0 && c.shape <= kMaxShape &&
          std::floor(2.0 * c.shape) == 2.0 * c.shape)) {
      throw std::invalid_argument(
          "MissRatioCurve: shape must be a multiple of 1/2 in (0, 64]");
    }
    total += c.weight;
  }
  if (total > 1.0 + 1e-9) {
    throw std::invalid_argument(
        "MissRatioCurve: floor + component weights exceed 1");
  }
}

double MissRatioCurve::at(double bytes) const noexcept {
  double slope = 0.0;
  return miss_and_slope(bytes, slope);
}

double MissRatioCurve::miss_and_slope(double bytes,
                                      double& slope) const noexcept {
  const double x = std::max(bytes, 0.0);
  double m = floor_;
  double dm = 0.0;
  for (const auto& c : components_) {
    const double coverage = std::min(x / c.ws_bytes, 1.0);
    if (coverage >= 1.0) continue;  // fully resident: contributes ~0
    const double uncovered = 1.0 - coverage;
    // uncovered^shape as whole powers times one square root for a half.
    const auto halves = static_cast<unsigned>(2.0 * c.shape);
    double power = halves % 2 != 0 ? std::sqrt(uncovered) : 1.0;
    for (unsigned k = halves / 2; k > 0; --k) power *= uncovered;
    const double term = c.weight * power;
    m += term;
    dm -= term * c.shape / (uncovered * c.ws_bytes);
  }
  slope = m > 1.0 ? 0.0 : dm;
  return std::min(m, 1.0);
}

double MissRatioCurve::ceiling() const noexcept {
  double m = floor_;
  for (const auto& c : components_) m += c.weight;
  return std::min(m, 1.0);
}

double MissRatioCurve::footprint_bytes() const noexcept {
  double fp = 0.0;
  for (const auto& c : components_) fp += c.ws_bytes;
  return fp;
}

double MissRatioCurve::stream_fraction() const noexcept {
  const double c = ceiling();
  return c > 0.0 ? floor_ / c : 0.0;
}

MissRatioCurve MissRatioCurve::streaming(double intensity_floor) {
  // A streaming app misses regardless of allocation: the floor carries
  // almost all the mass, with a token small reuse component so the curve
  // is not perfectly flat.
  return MissRatioCurve(
      intensity_floor,
      {{std::min(0.05, 1.0 - intensity_floor), 512.0 * 1024.0, 2.0}});
}

MissRatioCurve MissRatioCurve::single_knee(double miss_mass, double ws_bytes,
                                           double floor, double shape) {
  return MissRatioCurve(floor, {{miss_mass, ws_bytes, shape}});
}

MissRatioCurve MissRatioCurve::double_knee(double mass1, double ws1,
                                           double mass2, double ws2,
                                           double floor) {
  return MissRatioCurve(floor, {{mass1, ws1, 1.5}, {mass2, ws2, 1.5}});
}

EmpiricalMrc::EmpiricalMrc(std::vector<std::pair<double, double>> points)
    : points_(std::move(points)) {
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].first < points_[i - 1].first) {
      throw std::invalid_argument("EmpiricalMrc: points not sorted by bytes");
    }
  }
  for (const auto& [bytes, miss] : points_) {
    if (bytes < 0.0 || miss < 0.0 || miss > 1.0) {
      throw std::invalid_argument("EmpiricalMrc: point out of range");
    }
  }
}

double EmpiricalMrc::at(double bytes) const noexcept {
  if (points_.empty()) return 1.0;
  if (bytes <= points_.front().first) return points_.front().second;
  if (bytes >= points_.back().first) return points_.back().second;
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), bytes,
      [](const auto& p, double b) { return p.first < b; });
  const auto& [x1, y1] = *it;
  const auto& [x0, y0] = *(it - 1);
  if (x1 == x0) return y1;
  const double f = (bytes - x0) / (x1 - x0);
  return y0 + f * (y1 - y0);
}

double EmpiricalMrc::monotonicity_violation() const noexcept {
  double worst = 0.0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    worst = std::max(worst, points_[i].second - points_[i - 1].second);
  }
  return worst;
}

}  // namespace dicer::sim

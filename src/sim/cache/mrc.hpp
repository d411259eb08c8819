// Miss-ratio curves (MRCs).
//
// The analytic model drives each application's LLC behaviour through an MRC
// m(x): miss ratio as a function of the effective cache space x (bytes) the
// application holds. We model an MRC as a floor (compulsory / streaming
// misses) plus a sum of "working set" components, each a coverage curve:
// holding fraction c = min(x / ws_j, 1) of working set j converts that
// component's misses into hits as
//
//   m(x) = floor + sum_j weight_j * (1 - c)^shape_j
//
// shape = 1 models uniform reuse over the working set (hit rate equals the
// resident fraction — the classic random-reuse result); shape > 1 models
// skewed reuse (a hot subset, so the first bytes of residency buy the most
// hits); shape < 1 models scan-like reuse where only near-total residency
// helps. Shapes are positive multiples of 1/2 (every catalog curve uses 1,
// 1.5, 2 or 2.5, and trace fits use 1), so (1 - c)^shape is a product of
// whole powers and at most one square root: no pow() on the quantum
// solve's path, and within a few ulp of pow(). Partial residency MUST give
// partial hits: an app holding 60 % of
// its set hits well over half the time under real LRU, and the paper's
// classification physics (CT rescuing partially-squeezed HPs by only a
// little) depends on that.
//
// Properties (enforced and unit-tested): m is monotonically non-increasing,
// m(0) = floor + sum weight_j <= 1, m(inf) = floor >= 0.
//
// The same header provides an empirical, table-based MRC (built by the
// trace-driven cache simulator) so tests can cross-validate the analytic
// curves against true LRU behaviour.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dicer::sim {

/// One working-set component of an analytic MRC.
struct MrcComponent {
  double weight = 0.0;    ///< miss-ratio mass released once covered
  double ws_bytes = 0.0;  ///< working-set size (bytes)
  /// Reuse skew; 1 = uniform, > 1 = hot-subset. A positive multiple of
  /// 1/2, at most MissRatioCurve::kMaxShape.
  double shape = 1.5;
};

/// Analytic miss-ratio curve (sum of hill components over a floor).
class MissRatioCurve {
 public:
  /// Largest component shape.
  static constexpr double kMaxShape = 64.0;

  MissRatioCurve() = default;
  /// Throws std::invalid_argument unless 0 <= floor, weights >= 0,
  /// floor + sum(weights) <= 1, ws_bytes > 0 and every shape is a
  /// multiple of 1/2 in (0, kMaxShape].
  MissRatioCurve(double floor, std::vector<MrcComponent> components);

  /// Miss ratio for an effective allocation of `bytes` (>= 0).
  double at(double bytes) const noexcept;
  /// at(bytes) together with its derivative dm/dbytes (<= 0) in `slope`:
  /// -sum over partly covered components of
  /// weight * shape * (1 - c)^shape / ((1 - c) * ws), from the same power
  /// as the miss ratio; 0 where the miss ratio clamps at 1. The power is
  /// whole multiplications times one sqrt for a half shape.
  double miss_and_slope(double bytes, double& slope) const noexcept;

  /// Asymptotic miss ratio with unbounded cache.
  double floor() const noexcept { return floor_; }
  /// Miss ratio with zero cache space.
  double ceiling() const noexcept;

  const std::vector<MrcComponent>& components() const noexcept {
    return components_;
  }

  /// Total re-usable footprint: the sum of component working sets. The
  /// occupancy model caps an app's re-used residency at this.
  double footprint_bytes() const noexcept;

  /// Fraction of LLC traffic that is compulsory/streaming (never re-used):
  /// floor / ceiling. 0 when the curve is all-reuse, ~1 for pure streams.
  double stream_fraction() const noexcept;

  /// Convenience constructors for the three behaviour classes used by the
  /// application catalog (see sim/core/catalog.cpp).
  static MissRatioCurve streaming(double intensity_floor);
  static MissRatioCurve single_knee(double miss_mass, double ws_bytes,
                                    double floor = 0.005,
                                    double shape = 1.5);
  static MissRatioCurve double_knee(double mass1, double ws1, double mass2,
                                    double ws2, double floor = 0.005);

 private:
  double floor_ = 0.0;
  std::vector<MrcComponent> components_;
};

/// Empirical MRC: a piecewise-linear table of (bytes, miss-ratio) samples,
/// typically produced by profiling an address stream through the
/// trace-driven LRU simulator at each way count.
class EmpiricalMrc {
 public:
  EmpiricalMrc() = default;
  /// Points must be sorted by bytes ascending; miss ratios in [0, 1].
  explicit EmpiricalMrc(std::vector<std::pair<double, double>> points);

  bool empty() const noexcept { return points_.empty(); }
  std::size_t size() const noexcept { return points_.size(); }

  /// Linear interpolation, clamped to the end points.
  double at(double bytes) const noexcept;

  /// Largest upward violation of monotonicity across the table (0 for a
  /// perfectly non-increasing curve). Used by validation tests.
  double monotonicity_violation() const noexcept;

  const std::vector<std::pair<double, double>>& points() const noexcept {
    return points_;
  }

 private:
  std::vector<std::pair<double, double>> points_;
};

}  // namespace dicer::sim

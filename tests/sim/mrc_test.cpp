#include "sim/cache/mrc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace dicer::sim {
namespace {

constexpr double MB = 1024.0 * 1024.0;

TEST(MissRatioCurve, DefaultIsZeroMiss) {
  MissRatioCurve mrc;
  EXPECT_DOUBLE_EQ(mrc.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(mrc.floor(), 0.0);
  EXPECT_DOUBLE_EQ(mrc.ceiling(), 0.0);
}

TEST(MissRatioCurve, CeilingAtZeroBytes) {
  const auto mrc = MissRatioCurve::single_knee(0.6, 2 * MB, 0.1);
  EXPECT_DOUBLE_EQ(mrc.at(0.0), 0.7);
  EXPECT_DOUBLE_EQ(mrc.ceiling(), 0.7);
}

TEST(MissRatioCurve, FloorAtFullCoverage) {
  const auto mrc = MissRatioCurve::single_knee(0.6, 2 * MB, 0.1);
  EXPECT_DOUBLE_EQ(mrc.at(2 * MB), 0.1);
  EXPECT_DOUBLE_EQ(mrc.at(100 * MB), 0.1);
}

TEST(MissRatioCurve, UniformReuseIsLinear) {
  const auto mrc = MissRatioCurve(0.0, {{1.0, 10 * MB, 1.0}});
  EXPECT_NEAR(mrc.at(5 * MB), 0.5, 1e-12);
  EXPECT_NEAR(mrc.at(2.5 * MB), 0.75, 1e-12);
}

TEST(MissRatioCurve, SkewedReuseGainsEarly) {
  const auto uniform = MissRatioCurve(0.0, {{1.0, 10 * MB, 1.0}});
  const auto skewed = MissRatioCurve(0.0, {{1.0, 10 * MB, 2.0}});
  // At half coverage the skewed curve has already dropped further.
  EXPECT_LT(skewed.at(5 * MB), uniform.at(5 * MB));
}

TEST(MissRatioCurve, NegativeBytesTreatedAsZero) {
  const auto mrc = MissRatioCurve::single_knee(0.5, MB);
  EXPECT_DOUBLE_EQ(mrc.at(-1.0), mrc.at(0.0));
}

TEST(MissRatioCurve, DoubleKneeOrdering) {
  const auto mrc = MissRatioCurve::double_knee(0.3, 2 * MB, 0.4, 20 * MB, 0.05);
  // Covering the small set removes its mass; the big set still misses.
  EXPECT_NEAR(mrc.at(2 * MB), 0.05 + 0.4 * std::pow(0.9, 1.5), 1e-9);
  EXPECT_DOUBLE_EQ(mrc.at(20 * MB), 0.05);
}

TEST(MissRatioCurve, StreamingIsNearlyFlat) {
  const auto mrc = MissRatioCurve::streaming(0.9);
  EXPECT_GE(mrc.at(0.0), 0.9);
  EXPECT_GE(mrc.at(25 * MB), 0.9);
  EXPECT_LE(mrc.at(25 * MB) - mrc.floor(), 1e-9);
}

TEST(MissRatioCurve, ValidationRejectsBadInput) {
  EXPECT_THROW(MissRatioCurve(-0.1, {}), std::invalid_argument);
  EXPECT_THROW(MissRatioCurve(1.1, {}), std::invalid_argument);
  EXPECT_THROW(MissRatioCurve(0.0, {{-0.1, MB, 1.0}}), std::invalid_argument);
  EXPECT_THROW(MissRatioCurve(0.0, {{0.5, 0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(MissRatioCurve(0.0, {{0.5, MB, 0.0}}), std::invalid_argument);
  EXPECT_THROW(MissRatioCurve(0.5, {{0.6, MB, 1.0}}), std::invalid_argument);
}

TEST(MissRatioCurve, ShapeMustBeAPositiveMultipleOfAHalf) {
  EXPECT_THROW(MissRatioCurve(0.0, {{0.5, MB, 0.7}}), std::invalid_argument);
  EXPECT_THROW(MissRatioCurve(0.0, {{0.5, MB, 1.25}}), std::invalid_argument);
  EXPECT_THROW(MissRatioCurve(0.0, {{0.5, MB, -0.5}}), std::invalid_argument);
  EXPECT_THROW(
      MissRatioCurve(0.0, {{0.5, MB, MissRatioCurve::kMaxShape + 0.5}}),
      std::invalid_argument);
  for (double shape = 0.5; shape <= 3.0; shape += 0.5) {
    EXPECT_NO_THROW(MissRatioCurve(0.0, {{0.5, MB, shape}})) << shape;
  }
}

/// Units in the last place between two positive doubles.
std::uint64_t ulps(double a, double b) {
  const auto ia = std::bit_cast<std::uint64_t>(a);
  const auto ib = std::bit_cast<std::uint64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

TEST(MissRatioCurve, HalfIntegerPowersMatchPow) {
  // For every shape from 1/2 to 3, the multiply-and-sqrt power is within
  // 4 ulp of std::pow over a grid of coverages, and the slope matches
  // central differences.
  for (double shape = 0.5; shape <= 3.0; shape += 0.5) {
    const MissRatioCurve mrc(0.0, {{1.0, 10 * MB, shape}});
    for (double c = 0.001; c < 0.999; c += 0.00731) {
      const double x = c * 10 * MB;
      double slope = 1.0;
      const double m = mrc.miss_and_slope(x, slope);
      const double uncovered = 1.0 - std::min(x / (10 * MB), 1.0);
      const double want = std::pow(uncovered, shape);
      EXPECT_LE(ulps(m, want), 4u)
          << "shape " << shape << " coverage " << c << ": " << m << " vs "
          << want;
      const double h = 1e-6 * x;
      const double fd = (mrc.at(x + h) - mrc.at(x - h)) / (2.0 * h);
      EXPECT_NEAR(slope, fd, 1e-6 * std::fabs(fd) + 1e-22)
          << "shape " << shape << " coverage " << c;
    }
  }
}

TEST(MissRatioCurve, MassExactlyOneAccepted) {
  EXPECT_NO_THROW(MissRatioCurve(0.4, {{0.6, MB, 1.0}}));
}

TEST(MissRatioCurve, FootprintSumsComponents) {
  const auto mrc = MissRatioCurve::double_knee(0.3, 2 * MB, 0.4, 20 * MB);
  EXPECT_DOUBLE_EQ(mrc.footprint_bytes(), 22 * MB);
}

TEST(MissRatioCurve, StreamFraction) {
  const auto mrc = MissRatioCurve::single_knee(0.6, MB, 0.2);
  EXPECT_NEAR(mrc.stream_fraction(), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(MissRatioCurve().stream_fraction(), 0.0);
}

struct CurveCase {
  const char* name;
  MissRatioCurve mrc;
};

class MrcProperty : public ::testing::TestWithParam<int> {
 public:
  static std::vector<MissRatioCurve> curves() {
    return {
        MissRatioCurve::streaming(0.92),
        MissRatioCurve::single_knee(0.6, 3 * MB, 0.03),
        MissRatioCurve::single_knee(0.77, 0.5 * MB, 0.03, 2.0),
        MissRatioCurve::double_knee(0.28, 3.5 * MB, 0.42, 48 * MB, 0.02),
        MissRatioCurve(0.1, {{0.2, MB, 1.0}, {0.3, 4 * MB, 1.5},
                             {0.1, 20 * MB, 2.5}}),
    };
  }
};

TEST_P(MrcProperty, MonotoneNonIncreasingAndBounded) {
  const auto mrc = curves()[static_cast<std::size_t>(GetParam())];
  double prev = 1.1;
  for (double x = 0.0; x <= 64 * MB; x += 0.25 * MB) {
    const double m = mrc.at(x);
    EXPECT_LE(m, prev + 1e-12) << "at " << x;
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, 1.0);
    prev = m;
  }
  EXPECT_NEAR(mrc.at(1e15), mrc.floor(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Curves, MrcProperty, ::testing::Range(0, 5));

TEST_P(MrcProperty, MissAndSlopeMatchAtAndCentralDifferences) {
  // The miss ratio is at()'s; the slope is the curve's derivative
  // wherever no component is just covered.
  const auto mrc = curves()[static_cast<std::size_t>(GetParam())];
  for (double x = 0.1 * MB; x <= 64 * MB; x += 0.37 * MB) {
    double slope = 1.0;
    EXPECT_EQ(mrc.miss_and_slope(x, slope), mrc.at(x)) << "at " << x;
    const double h = 1e-6 * x;
    const double fd = (mrc.at(x + h) - mrc.at(x - h)) / (2.0 * h);
    EXPECT_LE(slope, 0.0) << "at " << x;
    EXPECT_NEAR(slope, fd, 1e-6 * std::fabs(fd) + 1e-22) << "at " << x;
  }
  double slope = 1.0;
  EXPECT_EQ(mrc.miss_and_slope(1e15, slope), mrc.at(1e15));
  EXPECT_EQ(slope, 0.0);  // every working set covered
}

TEST(EmpiricalMrc, InterpolatesLinearly) {
  EmpiricalMrc mrc({{0.0, 1.0}, {10.0, 0.5}, {20.0, 0.1}});
  EXPECT_DOUBLE_EQ(mrc.at(5.0), 0.75);
  EXPECT_DOUBLE_EQ(mrc.at(15.0), 0.3);
}

TEST(EmpiricalMrc, ClampsToEndpoints) {
  EmpiricalMrc mrc({{10.0, 0.8}, {20.0, 0.2}});
  EXPECT_DOUBLE_EQ(mrc.at(0.0), 0.8);
  EXPECT_DOUBLE_EQ(mrc.at(100.0), 0.2);
}

TEST(EmpiricalMrc, EmptyMissesEverything) {
  EmpiricalMrc mrc;
  EXPECT_TRUE(mrc.empty());
  EXPECT_DOUBLE_EQ(mrc.at(5.0), 1.0);
}

TEST(EmpiricalMrc, RejectsUnsortedOrOutOfRange) {
  EXPECT_THROW(EmpiricalMrc({{10.0, 0.5}, {5.0, 0.6}}), std::invalid_argument);
  EXPECT_THROW(EmpiricalMrc({{0.0, 1.5}}), std::invalid_argument);
  EXPECT_THROW(EmpiricalMrc({{-1.0, 0.5}}), std::invalid_argument);
}

TEST(EmpiricalMrc, MonotonicityViolationMeasured) {
  EmpiricalMrc good({{0.0, 0.9}, {1.0, 0.5}});
  EXPECT_DOUBLE_EQ(good.monotonicity_violation(), 0.0);
  EmpiricalMrc bad({{0.0, 0.5}, {1.0, 0.7}});
  EXPECT_NEAR(bad.monotonicity_violation(), 0.2, 1e-12);
}

TEST(EmpiricalMrc, SinglePointIsConstantEverywhere) {
  EmpiricalMrc mrc({{10.0, 0.4}});
  EXPECT_EQ(mrc.size(), 1u);
  EXPECT_DOUBLE_EQ(mrc.at(0.0), 0.4);
  EXPECT_DOUBLE_EQ(mrc.at(10.0), 0.4);
  EXPECT_DOUBLE_EQ(mrc.at(1e18), 0.4);
  EXPECT_DOUBLE_EQ(mrc.monotonicity_violation(), 0.0);
}

TEST(EmpiricalMrc, DuplicateXValuesDoNotDivideByZero) {
  // A vertical step: duplicate x is legal (sorted, not strictly), and
  // queries at the shared x must return a finite value from the step, not
  // a 0/0 interpolation.
  EmpiricalMrc mrc({{0.0, 1.0}, {10.0, 0.8}, {10.0, 0.4}, {20.0, 0.2}});
  const double at_step = mrc.at(10.0);
  EXPECT_TRUE(std::isfinite(at_step));
  EXPECT_GE(at_step, 0.4);
  EXPECT_LE(at_step, 0.8);
  // Either side of the step interpolates against the matching endpoint.
  EXPECT_DOUBLE_EQ(mrc.at(5.0), 0.9);
  EXPECT_DOUBLE_EQ(mrc.at(15.0), 0.3);
}

TEST(EmpiricalMrc, QueriesBeyondTheTableClampNotExtrapolate) {
  EmpiricalMrc mrc({{10.0, 0.8}, {20.0, 0.2}});
  // Below the first point: the steep first segment must NOT extrapolate
  // above the first value.
  EXPECT_DOUBLE_EQ(mrc.at(9.999), 0.8);
  EXPECT_DOUBLE_EQ(mrc.at(-5.0), 0.8);
  // Above the last point likewise.
  EXPECT_DOUBLE_EQ(mrc.at(20.001), 0.2);
}

TEST(EmpiricalMrc, MonotonicityViolationPicksTheWorstBump) {
  EmpiricalMrc bumpy({{0.0, 0.6},
                      {1.0, 0.7},    // +0.1
                      {2.0, 0.3},
                      {3.0, 0.55},   // +0.25  <- worst
                      {4.0, 0.5}});
  EXPECT_NEAR(bumpy.monotonicity_violation(), 0.25, 1e-12);
}

}  // namespace
}  // namespace dicer::sim

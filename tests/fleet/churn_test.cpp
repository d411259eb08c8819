#include "fleet/churn.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "sim/core/catalog.hpp"

namespace dicer::fleet {
namespace {

ChurnConfig fast_config() {
  ChurnConfig c;
  c.arrival_rate_per_sec = 10.0;
  c.mean_lifetime_sec = 5.0;
  c.seed = 99;
  return c;
}

TEST(ChurnGenerator, ValidatesConfig) {
  const auto& catalog = sim::default_catalog();
  ChurnConfig bad = fast_config();
  bad.arrival_rate_per_sec = -1.0;
  EXPECT_THROW(ChurnGenerator(bad, catalog), std::invalid_argument);
  bad.arrival_rate_per_sec = 0.0;  // the idle control run
  EXPECT_NO_THROW(ChurnGenerator(bad, catalog));
  bad = fast_config();
  bad.mean_lifetime_sec = -1.0;
  EXPECT_THROW(ChurnGenerator(bad, catalog), std::invalid_argument);
  // Non-finite values: an infinite rate makes every gap 0 (drain_until
  // would spin forever) and NaN slips past a plain `<= 0` check.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {inf, -inf, nan}) {
    bad = fast_config();
    bad.arrival_rate_per_sec = v;
    EXPECT_THROW(ChurnGenerator(bad, catalog), std::invalid_argument) << v;
    bad = fast_config();
    bad.mean_lifetime_sec = v;
    EXPECT_THROW(ChurnGenerator(bad, catalog), std::invalid_argument) << v;
    bad = fast_config();
    bad.min_lifetime_sec = v;
    EXPECT_THROW(ChurnGenerator(bad, catalog), std::invalid_argument) << v;
  }
}

TEST(ChurnGenerator, ArrivalsAreOrderedAndDistinct) {
  ChurnGenerator gen(fast_config(), sim::default_catalog());
  double last_t = 0.0;
  std::uint64_t last_id = 0;
  for (int i = 0; i < 200; ++i) {
    const auto a = gen.next();
    EXPECT_GT(a.t_sec, last_t);
    if (i > 0) {
      EXPECT_EQ(a.id, last_id + 1);
    }
    EXPECT_GE(a.lifetime_sec, fast_config().min_lifetime_sec);
    ASSERT_NE(a.app, nullptr);
    last_t = a.t_sec;
    last_id = a.id;
  }
}

TEST(ChurnGenerator, DeterministicForSeed) {
  const auto& catalog = sim::default_catalog();
  ChurnGenerator a(fast_config(), catalog);
  ChurnGenerator b(fast_config(), catalog);
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next();
    const auto y = b.next();
    EXPECT_DOUBLE_EQ(x.t_sec, y.t_sec);
    EXPECT_DOUBLE_EQ(x.lifetime_sec, y.lifetime_sec);
    EXPECT_EQ(x.app, y.app);
  }
}

TEST(ChurnGenerator, SeedChangesTheSequence) {
  const auto& catalog = sim::default_catalog();
  ChurnGenerator a(fast_config(), catalog);
  ChurnConfig other = fast_config();
  other.seed = 100;
  ChurnGenerator b(other, catalog);
  bool any_diff = false;
  for (int i = 0; i < 32 && !any_diff; ++i) {
    any_diff = a.next().t_sec != b.next().t_sec;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ChurnGenerator, DrainUntilSplitsAtBoundaries) {
  const auto& catalog = sim::default_catalog();
  ChurnGenerator whole(fast_config(), catalog);
  ChurnGenerator split(fast_config(), catalog);
  const auto all = whole.drain_until(10.0);
  auto first = split.drain_until(4.0);
  const auto rest = split.drain_until(10.0);
  first.insert(first.end(), rest.begin(), rest.end());
  ASSERT_EQ(first.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i].t_sec, all[i].t_sec);
    EXPECT_EQ(first[i].id, all[i].id);
  }
  for (const auto& a : first) EXPECT_LT(a.t_sec, 10.0);
}

// A zero rate never arrives: the next arrival sits at +inf (not at the
// NaN a -log(1 - u) / 0 gap would give), so no horizon drains anything.
TEST(ChurnGenerator, ZeroRateNeverArrives) {
  ChurnConfig idle = fast_config();
  idle.arrival_rate_per_sec = 0.0;
  ChurnGenerator gen(idle, sim::default_catalog());
  EXPECT_TRUE(gen.drain_until(1e9).empty());
  EXPECT_EQ(gen.peek().t_sec, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(gen.drain_until(1e18).empty());
}

TEST(ChurnGenerator, MeanRateRoughlyMatches) {
  ChurnGenerator gen(fast_config(), sim::default_catalog());
  const auto arrivals = gen.drain_until(100.0);
  // 10/s over 100 s => ~1000; Poisson sd ~32, allow 5 sigma.
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 1000.0, 160.0);
}

}  // namespace
}  // namespace dicer::fleet

// Tests for statistics helpers (numerics/stats.hpp).
#include "numerics/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>


namespace cps::num {
namespace {

TEST(RunningStats, EmptyState) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isinf(s.min()));
  EXPECT_TRUE(std::isinf(s.max()));
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> data{1.0, 4.0, 2.0, 8.0, 5.0, 7.0};
  RunningStats s;
  for (const double x : data) s.add(x);
  EXPECT_EQ(s.count(), data.size());
  EXPECT_NEAR(s.mean(), 4.5, 1e-12);
  // Sample variance with n-1 denominator.
  double var = 0.0;
  for (const double x : data) var += (x - 4.5) * (x - 4.5);
  var /= static_cast<double>(data.size() - 1);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
}

TEST(RunningStats, SingleSampleVarianceIsZero) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(ConvergenceIndex, FindsSettlingPoint) {
  // Settles at index 3 within 5% of the final value.
  const std::vector<double> series{10.0, 5.0, 2.0, 1.01, 1.0, 1.0, 1.0};
  EXPECT_EQ(convergence_index(series, 0.05), 3u);
}

TEST(ConvergenceIndex, NeverSettled) {
  const std::vector<double> series{4.0, 3.0, 2.0, 1.0};
  // Each step is a >20% move relative to the final value 1.0, so only the
  // last element is inside the band.
  EXPECT_EQ(convergence_index(series, 0.05), 3u);
}

TEST(ConvergenceIndex, ConstantSeriesSettlesImmediately) {
  const std::vector<double> series{2.0, 2.0, 2.0};
  EXPECT_EQ(convergence_index(series, 0.01), 0u);
}

TEST(ConvergenceIndex, EmptySeries) {
  EXPECT_EQ(convergence_index({}, 0.05), 0u);
}

}  // namespace
}  // namespace cps::num

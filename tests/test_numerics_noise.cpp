// Tests for value noise (numerics/noise.hpp).
#include "numerics/noise.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace cps::num {
namespace {

TEST(ValueNoise, DeterministicForSeed) {
  const ValueNoise a(42, 0.1);
  const ValueNoise b(42, 0.1);
  for (int i = 0; i < 50; ++i) {
    const double x = 0.37 * i;
    const double y = 1.91 * i;
    EXPECT_DOUBLE_EQ(a.sample(x, y), b.sample(x, y));
  }
}

TEST(ValueNoise, DifferentSeedsDiffer) {
  const ValueNoise a(1, 0.1);
  const ValueNoise b(2, 0.1);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.sample(0.3 * i, 0.7 * i) == b.sample(0.3 * i, 0.7 * i)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(ValueNoise, OutputBounded) {
  const ValueNoise n(7, 0.05);
  for (int i = 0; i < 2000; ++i) {
    const double v = n.sample(i * 0.631, i * 0.377);
    ASSERT_GE(v, -1.0001);
    ASSERT_LE(v, 1.0001);
  }
}

TEST(ValueNoise, SmoothAtFineScale) {
  // Adjacent queries well inside one lattice cell should be close.
  const ValueNoise n(11, 0.01);  // 100-unit cells.
  const double v1 = n.sample(50.0, 50.0);
  const double v2 = n.sample(50.5, 50.0);
  EXPECT_LT(std::abs(v1 - v2), 0.1);
}

TEST(ValueNoise, VariesAcrossCells) {
  const ValueNoise n(13, 0.5);  // 2-unit cells.
  double lo = 1e9;
  double hi = -1e9;
  for (int i = 0; i < 100; ++i) {
    const double v = n.sample(i * 2.13, i * 3.71);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi - lo, 0.5);  // Real variation, not a constant.
}

TEST(ValueNoise, InvalidFrequencyThrows) {
  EXPECT_THROW(ValueNoise(1, 0.0), std::invalid_argument);
  EXPECT_THROW(ValueNoise(1, -0.5), std::invalid_argument);
  EXPECT_THROW(ValueNoise(1, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(ValueNoise, FbmBoundedAndDeterministic) {
  const ValueNoise n(17, 0.05);
  for (int i = 0; i < 500; ++i) {
    const double v = n.fbm(i * 0.91, i * 0.53, 4);
    ASSERT_GE(v, -1.0001);
    ASSERT_LE(v, 1.0001);
  }
  EXPECT_DOUBLE_EQ(n.fbm(3.0, 4.0, 4), n.fbm(3.0, 4.0, 4));
}

TEST(ValueNoise, FbmSingleOctaveEqualsSample) {
  const ValueNoise n(19, 0.07);
  EXPECT_DOUBLE_EQ(n.fbm(2.5, 7.5, 1), n.sample(2.5, 7.5));
}

TEST(ValueNoise, FbmValidation) {
  const ValueNoise n(23, 0.1);
  EXPECT_THROW(n.fbm(0.0, 0.0, 0), std::invalid_argument);
  EXPECT_THROW(n.fbm(0.0, 0.0, -2), std::invalid_argument);
}

}  // namespace
}  // namespace cps::num

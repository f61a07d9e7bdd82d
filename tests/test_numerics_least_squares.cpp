// Tests for the quadric fit (numerics/least_squares.hpp).
#include "numerics/least_squares.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "numerics/rng.hpp"

namespace cps::num {
namespace {

TEST(QuadricFit, CurvatureFormulas) {
  // Paper Eqns. 12-13: g1,2 = a + c -/+ sqrt((a-c)^2 + b^2).
  const QuadricFit fit{2.0, 1.0, -1.0};
  const double root = std::sqrt(9.0 + 1.0);
  EXPECT_NEAR(fit.g1(), 1.0 - root, 1e-12);
  EXPECT_NEAR(fit.g2(), 1.0 + root, 1e-12);
  EXPECT_NEAR(fit.gaussian(), fit.g1() * fit.g2(), 1e-12);
  EXPECT_NEAR(fit.gaussian(), 1.0 - 10.0, 1e-12);  // (a+c)^2-((a-c)^2+b^2)
}

TEST(QuadricFit, EvaluateMatchesPolynomial) {
  const QuadricFit fit{1.0, -2.0, 0.5};
  EXPECT_NEAR(fit.evaluate(2.0, 3.0), 4.0 - 12.0 + 4.5, 1e-12);
}

TEST(FitQuadric, TooFewSamplesThrows) {
  const std::vector<QuadricSample> s{{0.0, 0.0, 0.0}, {1.0, 0.0, 1.0}};
  EXPECT_THROW(fit_quadric(s), std::invalid_argument);
}

TEST(FitQuadric, DegenerateSamplesStayFinite) {
  // All samples on the x axis: b and c are unidentifiable; the ridge term
  // must still produce a finite fit with the right a.
  std::vector<QuadricSample> s;
  for (int i = -3; i <= 3; ++i) {
    const double x = i;
    s.push_back({x, 0.0, 2.0 * x * x});
  }
  const QuadricFit fit = fit_quadric(s);
  EXPECT_TRUE(std::isfinite(fit.a));
  EXPECT_TRUE(std::isfinite(fit.b));
  EXPECT_TRUE(std::isfinite(fit.c));
  EXPECT_NEAR(fit.a, 2.0, 1e-4);
}

// The fit's exact bits on two designs, pinned as hex-float literals: the
// curvature path (every CMA sense, the CWD solver, FRA's curvature
// ablation) depends on them, so a change to the normal-equation sums, the
// ridge, the pivot order or the substitution order shows here first.
// Symmetric disk: a radius-4 lattice at pitch 0.5 under a quadric plus a
// cubic term, so the fit is not exact.
TEST(FitQuadric, PinnedBitsOnSymmetricDisk) {
  std::vector<QuadricSample> s;
  for (int i = -4; i <= 4; ++i) {
    for (int j = -4; j <= 4; ++j) {
      if (i * i + j * j > 16) continue;
      const double x = 0.5 * i;
      const double y = 0.5 * j;
      s.push_back({x, y,
                   0.7 * x * x - 0.3 * x * y + 1.1 * y * y +
                       0.05 * x * x * x});
    }
  }
  ASSERT_EQ(s.size(), 49u);
  const QuadricFit fit = fit_quadric(s);
  EXPECT_EQ(fit.a, 0x1.666666610ccadp-1);
  EXPECT_EQ(fit.b, -0x1.33333318bd587p-2);
  EXPECT_EQ(fit.c, 0x1.199999933c8ffp+0);
}

// Samples near the line dy = 2 dx: column 0 of the normal matrix is about
// (1, 2, 4) * sum dx^4, so the largest pivot sits in row 2 and the solve
// must swap rows 0 and 2 and read the RHS through that permutation.
TEST(FitQuadric, PinnedBitsNearTheLineDyTwoDx) {
  std::vector<QuadricSample> s;
  for (int i = -5; i <= 5; ++i) {
    const double x = 0.4 * i;
    const double y = 2.0 * x + 0.03 * ((i * 7 + 11) % 5 - 2);
    s.push_back({x, y, 0.5 * x * x + 0.2 * x * y - 0.1 * y * y + 0.01 * i});
  }
  const QuadricFit fit = fit_quadric(s);
  EXPECT_EQ(fit.a, -0x1.1849620a39326p+0);
  EXPECT_EQ(fit.b, 0x1.03654aeda11b8p+1);
  EXPECT_EQ(fit.c, -0x1.3935e33530956p-1);
}

// Property: the fit recovers exact quadric coefficients from disk samples.
class QuadricRecovery
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(QuadricRecovery, RecoversCoefficients) {
  const auto [a, b, c] = GetParam();
  std::vector<QuadricSample> samples;
  for (int i = -4; i <= 4; ++i) {
    for (int j = -4; j <= 4; ++j) {
      if (i * i + j * j > 16) continue;  // Disk mask, as a node senses.
      const double x = 0.5 * i;
      const double y = 0.5 * j;
      samples.push_back({x, y, a * x * x + b * x * y + c * y * y});
    }
  }
  const QuadricFit fit = fit_quadric(samples);
  EXPECT_NEAR(fit.a, a, 1e-6);
  EXPECT_NEAR(fit.b, b, 1e-6);
  EXPECT_NEAR(fit.c, c, 1e-6);
  // And the derived Gaussian curvature matches 4ac - b^2.
  EXPECT_NEAR(fit.gaussian(), 4.0 * a * c - b * b, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Coefficients, QuadricRecovery,
    ::testing::Values(std::make_tuple(1.0, 0.0, 1.0),
                      std::make_tuple(-2.0, 0.0, -2.0),
                      std::make_tuple(1.0, 1.0, -1.0),
                      std::make_tuple(0.0, 2.0, 0.0),
                      std::make_tuple(3.5, -1.25, 0.75),
                      std::make_tuple(0.0, 0.0, 0.0),
                      std::make_tuple(1e-3, 2e-3, -1e-3)));

// Property: adding symmetric noise leaves coefficients near the truth.
TEST(FitQuadric, RobustToSmallNoise) {
  Rng rng(99);
  std::vector<QuadricSample> samples;
  for (int i = -5; i <= 5; ++i) {
    for (int j = -5; j <= 5; ++j) {
      const double x = i;
      const double y = j;
      const double z = 0.5 * x * x - 0.25 * x * y + y * y +
                       rng.normal(0.0, 1e-3);
      samples.push_back({x, y, z});
    }
  }
  const QuadricFit fit = fit_quadric(samples);
  EXPECT_NEAR(fit.a, 0.5, 1e-2);
  EXPECT_NEAR(fit.b, -0.25, 1e-2);
  EXPECT_NEAR(fit.c, 1.0, 1e-2);
}

}  // namespace
}  // namespace cps::num

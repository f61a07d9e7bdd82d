// Tests for the midpoint lattice (numerics/quadrature.hpp).
#include "numerics/quadrature.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace cps::num {
namespace {

const Rect kUnit{0.0, 0.0, 1.0, 1.0};

// The midpoint rule on the lattice: the sum of g over every cell midpoint,
// rows accumulated left to right, times the cell area.
template <typename G>
double midpoint_rule(const Rect& rect, G g, std::size_t nx, std::size_t ny) {
  const MidpointLattice lat(rect, nx, ny);
  double sum = 0.0;
  for (std::size_t j = 0; j < lat.ny(); ++j) {
    for (const double x : lat.xs()) sum += g(x, lat.y(j));
  }
  return sum * lat.hx() * lat.hy();
}

TEST(Rect, Accessors) {
  const Rect r{1.0, 2.0, 4.0, 7.0};
  EXPECT_DOUBLE_EQ(r.width(), 3.0);
  EXPECT_DOUBLE_EQ(r.height(), 5.0);
  EXPECT_DOUBLE_EQ(r.area(), 15.0);
  EXPECT_TRUE(r.contains(2.0, 3.0));
  EXPECT_TRUE(r.contains(1.0, 2.0));  // Boundary inclusive.
  EXPECT_FALSE(r.contains(0.5, 3.0));
  EXPECT_FALSE(r.contains(2.0, 8.0));
}

TEST(MidpointLattice, CellMidpointsAndPitch) {
  const Rect r{-2.0, 1.0, 2.0, 3.0};
  const MidpointLattice lat(r, 4, 5);
  EXPECT_EQ(lat.nx(), 4u);
  EXPECT_EQ(lat.ny(), 5u);
  EXPECT_EQ(lat.hx(), 1.0);
  EXPECT_EQ(lat.hy(), 0.4);
  ASSERT_EQ(lat.xs().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(lat.xs()[i], -2.0 + (static_cast<double>(i) + 0.5) * 1.0);
  }
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(lat.y(j), 1.0 + (static_cast<double>(j) + 0.5) * 0.4);
  }
  // Every midpoint lies strictly inside the rect.
  EXPECT_GT(lat.xs().front(), r.x0);
  EXPECT_LT(lat.xs().back(), r.x1);
  EXPECT_GT(lat.y(0), r.y0);
  EXPECT_LT(lat.y(4), r.y1);
}

TEST(MidpointLattice, ExactOnConstants) {
  EXPECT_NEAR(midpoint_rule(kUnit, [](double, double) { return 3.0; }, 4, 4),
              3.0, 1e-14);
  const Rect r{-2.0, 1.0, 2.0, 3.0};
  EXPECT_NEAR(midpoint_rule(r, [](double, double) { return 1.0; }, 3, 3),
              r.area(), 1e-13);
}

TEST(MidpointLattice, ExactOnPlanes) {
  // The midpoint rule integrates linear functions exactly.
  const double v = midpoint_rule(
      kUnit, [](double x, double y) { return 2.0 * x + 3.0 * y; }, 5, 7);
  EXPECT_NEAR(v, 1.0 + 1.5, 1e-13);
}

TEST(MidpointLattice, SecondOrderOnSmoothIntegrand) {
  const auto g = [](double x, double y) {
    return std::sin(std::numbers::pi * x) * std::sin(std::numbers::pi * y);
  };
  const double exact = 4.0 / (std::numbers::pi * std::numbers::pi);
  const double e1 = std::abs(midpoint_rule(kUnit, g, 10, 10) - exact);
  const double e2 = std::abs(midpoint_rule(kUnit, g, 20, 20) - exact);
  // Halving h should cut the error by ~4x for C^2 integrands.
  EXPECT_NEAR(e1 / e2, 4.0, 0.5);
  EXPECT_NEAR(midpoint_rule(kUnit, g, 64, 64), exact, 1e-4);
}

TEST(MidpointLattice, InvalidArgumentsThrow) {
  EXPECT_THROW(MidpointLattice(kUnit, 0, 4), std::invalid_argument);
  EXPECT_THROW(MidpointLattice(kUnit, 4, 0), std::invalid_argument);
  EXPECT_THROW(MidpointLattice(Rect{1.0, 0.0, 0.0, 1.0}, 4, 4),
               std::invalid_argument);
  EXPECT_THROW(MidpointLattice(Rect{0.0, 1.0, 1.0, 0.0}, 4, 4),
               std::invalid_argument);
}

// Parameterized: the |f| integrand used by the delta metric (piecewise C^1
// around the kink) still converges with resolution.
class AbsIntegrandSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AbsIntegrandSweep, AbsKinkConverges) {
  const std::size_t n = GetParam();
  // Integral of |x - 0.5| over the unit square = 0.25.
  const double v = midpoint_rule(
      kUnit, [](double x, double) { return std::abs(x - 0.5); }, n, n);
  EXPECT_NEAR(v, 0.25, 1.0 / static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Resolutions, AbsIntegrandSweep,
                         ::testing::Values(4u, 16u, 64u, 128u));

}  // namespace
}  // namespace cps::num

// Tests for sensing-coverage metrics (core/coverage.hpp).
#include "core/coverage.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numbers>

#include "core/planner.hpp"

namespace cps::core {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

TEST(Coverage, Validation) {
  const std::vector<geo::Vec2> one{{50.0, 50.0}};
  EXPECT_THROW(coverage_fraction(one, 0.0, kRegion), std::invalid_argument);
  EXPECT_THROW(coverage_fraction(one, 5.0, kRegion, 0),
               std::invalid_argument);
  EXPECT_THROW(coverage_fraction(one, 5.0, num::Rect{0.0, 0.0, 0.0, 1.0}),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(coverage_fraction(one, nan, kRegion), std::invalid_argument);
  EXPECT_THROW(covered_area(one, nan, kRegion), std::invalid_argument);
}

TEST(Coverage, EmptyDeploymentCoversNothing) {
  EXPECT_DOUBLE_EQ(coverage_fraction({}, 5.0, kRegion), 0.0);
  EXPECT_DOUBLE_EQ(covered_area({}, 5.0, kRegion), 0.0);
}

TEST(Coverage, SingleInteriorNodeMatchesDiskArea) {
  const std::vector<geo::Vec2> one{{50.0, 50.0}};
  const double measured = covered_area(one, 10.0, kRegion, 1, 200);
  const double exact = std::numbers::pi * 100.0;
  EXPECT_NEAR(measured, exact, 0.02 * exact);
}

TEST(Coverage, CornerNodeCoversQuarterDisk) {
  const std::vector<geo::Vec2> one{{0.0, 0.0}};
  const double measured = covered_area(one, 20.0, kRegion, 1, 200);
  const double exact = std::numbers::pi * 400.0 / 4.0;
  EXPECT_NEAR(measured, exact, 0.03 * exact);
}

TEST(Coverage, HugeRadiusCoversEverything) {
  const std::vector<geo::Vec2> one{{50.0, 50.0}};
  EXPECT_DOUBLE_EQ(coverage_fraction(one, 200.0, kRegion), 1.0);
}

TEST(Coverage, MultiplicityZeroIsWholeRegion) {
  EXPECT_DOUBLE_EQ(covered_area({}, 5.0, kRegion, 0), kRegion.area());
}

TEST(Coverage, RedundantCoverageNeedsOverlap) {
  // Two distant nodes: multiplicity-2 coverage is zero.
  const std::vector<geo::Vec2> apart{{20.0, 20.0}, {80.0, 80.0}};
  EXPECT_DOUBLE_EQ(covered_area(apart, 10.0, kRegion, 2), 0.0);
  // Two coincident nodes: multiplicity-2 equals multiplicity-1.
  const std::vector<geo::Vec2> twin{{50.0, 50.0}, {50.0, 50.0}};
  EXPECT_NEAR(covered_area(twin, 10.0, kRegion, 2),
              covered_area(twin, 10.0, kRegion, 1), 1e-9);
}

TEST(Coverage, MonotoneInNodeCount) {
  double previous = 0.0;
  for (const std::size_t k : {4u, 16u, 64u, 144u}) {
    const auto grid = GridPlanner::make_grid(kRegion, k);
    const double f = coverage_fraction(grid.positions, 5.0, kRegion, 80);
    EXPECT_GE(f, previous);
    previous = f;
  }
  EXPECT_GT(previous, 0.9);  // 144 nodes at Rs = 5 nearly blanket 100x100.
}

TEST(Coverage, PaperSaturationStory) {
  // Fig. 7's explanation: around k = 125 with Rs = 5 the region is
  // "almost fully" covered.  (Disk packing puts the perfect-cover bound
  // at ~127 nodes; the square grid needs more, so "almost" is right.)
  const auto grid = GridPlanner::make_grid(kRegion, 125);
  const double f = coverage_fraction(grid.positions, 5.0, kRegion, 100);
  EXPECT_GT(f, 0.75);
  EXPECT_LT(f, 1.0);
}

}  // namespace
}  // namespace cps::core

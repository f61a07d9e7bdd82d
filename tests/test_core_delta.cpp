// Tests for the delta quality metric (core/delta.hpp).
#include "core/delta.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/planner.hpp"
#include "field/analytic_fields.hpp"
#include "numerics/rng.hpp"

namespace cps::core {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

TEST(DeltaMetric, Validation) {
  EXPECT_THROW(DeltaMetric(num::Rect{0.0, 0.0, 0.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(DeltaMetric(kRegion, 0), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(DeltaMetric(num::Rect{0.0, 0.0, nan, 100.0}),
               std::invalid_argument);
  EXPECT_THROW(DeltaMetric(num::Rect{0.0, 0.0, inf, 100.0}),
               std::invalid_argument);
  EXPECT_THROW(DeltaMetric(num::Rect{-inf, 0.0, 100.0, 100.0}),
               std::invalid_argument);
}

TEST(DeltaMetric, ZeroForExactReconstruction) {
  // Plane + exact-corner reconstruction: DT == f everywhere, delta == 0.
  const field::PlaneField f(1.0, 0.2, -0.1);
  const auto dt = reconstruct_surface({}, kRegion,
                                      CornerPolicy::kFieldValue, &f);
  const DeltaMetric metric(kRegion, 50);
  EXPECT_NEAR(metric.delta(f, dt), 0.0, 1e-9);
}

TEST(DeltaMetric, ConstantOffsetIntegratesToVolume) {
  // f = 3, rebuilt surface = 0 everywhere: delta = 3 * area.
  const field::ConstantField f(3.0);
  const auto dt = reconstruct_surface({}, kRegion);  // Flat at 0.
  const DeltaMetric metric(kRegion, 40);
  EXPECT_NEAR(metric.delta(f, dt), 3.0 * kRegion.area(), 1e-6);
}

TEST(DeltaMetric, AbsoluteNotSigned) {
  // A surface that is +1 on half the region and -1 on the other half must
  // integrate to area, not zero.
  const field::AnalyticField f(
      [](double x, double) { return x < 50.0 ? 1.0 : -1.0; });
  const auto dt = reconstruct_surface({}, kRegion);
  const DeltaMetric metric(kRegion, 100);
  EXPECT_NEAR(metric.delta(f, dt), kRegion.area(), 1.0);
}

TEST(DeltaMetric, DeltaBetweenIsSymmetric) {
  const field::PlaneField a(0.0, 0.1, 0.0);
  const field::ConstantField b(2.0);
  const DeltaMetric metric(kRegion, 60);
  EXPECT_NEAR(metric.delta_between(a, b), metric.delta_between(b, a), 1e-9);
  EXPECT_NEAR(metric.delta_between(a, a), 0.0, 1e-12);
}

TEST(DeltaMetric, DeploymentPipelineMatchesManualPath) {
  const field::PeaksField f(kRegion);
  const auto grid = GridPlanner::make_grid(kRegion, 16);
  const DeltaMetric metric(kRegion, 50);
  const auto samples = take_samples(f, grid.positions);
  EXPECT_NEAR(metric.delta_of_deployment(f, grid.positions),
              metric.delta_from_samples(f, samples), 1e-9);
}

TEST(DeltaMetric, MoreSamplesOfSameFieldDoNotHurtMuch) {
  // Denser uniform sampling of a smooth surface should reduce delta
  // substantially (16 -> 100 nodes).
  const field::PeaksField f(kRegion);
  const DeltaMetric metric(kRegion, 60);
  const double d16 =
      metric.delta_of_deployment(f, GridPlanner::make_grid(kRegion, 16)
                                        .positions);
  const double d100 =
      metric.delta_of_deployment(f, GridPlanner::make_grid(kRegion, 100)
                                        .positions);
  EXPECT_LT(d100, d16 * 0.7);
}

TEST(DeltaMetric, MeanAbsErrorNormalisation) {
  const DeltaMetric metric(kRegion, 10);
  EXPECT_DOUBLE_EQ(metric.mean_abs_error(10000.0), 1.0);
  EXPECT_DOUBLE_EQ(metric.mean_abs_error(0.0), 0.0);
}

TEST(DeltaMetric, ResolutionConvergence) {
  // Delta estimates at rising resolutions converge to each other.
  const field::PeaksField f(kRegion);
  const auto deployment = GridPlanner::make_grid(kRegion, 25);
  const double d50 =
      DeltaMetric(kRegion, 50).delta_of_deployment(f, deployment.positions);
  const double d100 =
      DeltaMetric(kRegion, 100).delta_of_deployment(f, deployment.positions);
  const double d200 =
      DeltaMetric(kRegion, 200).delta_of_deployment(f, deployment.positions);
  EXPECT_LT(std::abs(d200 - d100), std::abs(d100 - d50) + 1.0);
  EXPECT_NEAR(d100, d200, 0.05 * d200);
}

}  // namespace
}  // namespace cps::core

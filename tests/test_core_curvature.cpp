// Tests for local curvature estimation (core/curvature.hpp).
#include "core/curvature.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <string>
#include <tuple>

#include "field/analytic_fields.hpp"

namespace cps::core {
namespace {

TEST(SensingPatch, Validation) {
  const field::ConstantField f(0.0);
  EXPECT_THROW(SensingPatch(f, {0.0, 0.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(SensingPatch(f, {0.0, 0.0}, 5.0, 0.0), std::invalid_argument);
  // Radius below the lattice pitch leaves a single sample.
  EXPECT_THROW(SensingPatch(f, {0.0, 0.0}, 0.4, 1.0), std::invalid_argument);
  // NaN fails every ordered comparison, so each must be rejected too —
  // by its own argument check, not by a later one after NaN has reached
  // the lattice arithmetic (a NaN-to-int cast is undefined).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto rejected_as = [&](double radius, double spacing) {
    try {
      SensingPatch(f, {0.0, 0.0}, radius, spacing);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(rejected_as(nan, 1.0), "SensingPatch: radius");
  EXPECT_EQ(rejected_as(5.0, nan), "SensingPatch: spacing");
}

TEST(SensingPatch, SampleCountApproximatesDiskArea) {
  // The paper's m = floor(pi Rs^2): lattice points in the disk track the
  // area (Gauss circle problem, within a few percent at Rs = 5).
  const field::ConstantField f(0.0);
  const SensingPatch patch(f, {50.0, 50.0}, 5.0);
  const double expected = std::numbers::pi * 25.0;
  EXPECT_NEAR(static_cast<double>(patch.sample_count()), expected, 5.0);
}

TEST(SensingPatch, SamplesInsideDisk) {
  const field::ConstantField f(0.0);
  const SensingPatch patch(f, {50.0, 50.0}, 5.0);
  for (const auto& s : patch.samples()) {
    ASSERT_LE(geo::distance(s.position, {50.0, 50.0}), 5.0 + 1e-12);
  }
}

TEST(SensingPatch, FlatFieldHasZeroCurvature) {
  const field::PlaneField f(3.0, 0.5, -0.2);  // Planes bend nowhere.
  const SensingPatch patch(f, {50.0, 50.0}, 5.0);
  EXPECT_NEAR(patch.gaussian(), 0.0, 1e-9);
  EXPECT_NEAR(patch.mean_abs_gaussian(), 0.0, 1e-9);
}

TEST(SensingPatch, PeakDetectionOnBump) {
  // A Gaussian bump centred 3 m east of the node: the curvature peak in
  // the sensing disk should be at/near the bump centre.
  const field::GaussianMixtureField f(0.0, {{{53.0, 50.0}, 5.0, 2.0}});
  const SensingPatch patch(f, {50.0, 50.0}, 5.0);
  const auto peak = patch.peak_curvature();
  ASSERT_TRUE(peak.has_value());
  EXPECT_NEAR(peak->position.x, 53.0, 1.5);
  EXPECT_NEAR(peak->position.y, 50.0, 1.5);
  EXPECT_GT(peak->gaussian_abs, 0.0);
}

TEST(SensingPatch, MeanAbsGaussianPositiveOnCurvedField) {
  const field::PeaksField f(num::Rect{0.0, 0.0, 100.0, 100.0});
  const SensingPatch patch(f, {50.0, 50.0}, 5.0);
  EXPECT_GT(patch.mean_abs_gaussian(), 0.0);
}

// Property: the quadric fit recovers exact coefficients for quadric fields
// regardless of where the node sits.
class QuadricFieldRecovery
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(QuadricFieldRecovery, FitMatchesFieldCoefficients) {
  const auto [a, b, c] = GetParam();
  const geo::Vec2 center{40.0, 60.0};
  const field::QuadricField f(center, a, b, c);
  const SensingPatch patch(f, center, 5.0);
  EXPECT_NEAR(patch.quadric().a, a, 1e-6);
  EXPECT_NEAR(patch.quadric().b, b, 1e-6);
  EXPECT_NEAR(patch.quadric().c, c, 1e-6);
  EXPECT_NEAR(patch.gaussian(), 4.0 * a * c - b * b, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Coefficients, QuadricFieldRecovery,
    ::testing::Values(std::make_tuple(0.5, 0.0, 0.5),
                      std::make_tuple(-1.0, 0.0, 1.0),
                      std::make_tuple(0.2, 0.3, -0.4),
                      std::make_tuple(0.0, 0.0, 0.0),
                      std::make_tuple(2.0, -1.0, 2.0)));

TEST(CurvatureEstimator, Validation) {
  EXPECT_THROW(CurvatureEstimator(0.0), std::invalid_argument);
  EXPECT_THROW(CurvatureEstimator(5.0, -1.0), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(CurvatureEstimator{nan}, std::invalid_argument);
  EXPECT_THROW(CurvatureEstimator(5.0, nan), std::invalid_argument);
}

TEST(CurvatureEstimator, MatchesSensingPatch) {
  const field::PeaksField f(num::Rect{0.0, 0.0, 100.0, 100.0});
  const CurvatureEstimator est(5.0);
  const SensingPatch patch(f, {30.0, 70.0}, 5.0);
  EXPECT_DOUBLE_EQ(est.gaussian_at(f, {30.0, 70.0}), patch.gaussian());
}

TEST(CurvatureEstimator, GridShapeAndNonNegativity) {
  const field::PeaksField f(num::Rect{0.0, 0.0, 100.0, 100.0});
  const CurvatureEstimator est(5.0);
  const auto grid =
      est.abs_gaussian_grid(f, num::Rect{10.0, 10.0, 90.0, 90.0}, 9, 7);
  EXPECT_EQ(grid.size(), 63u);
  for (const double g : grid) ASSERT_GE(g, 0.0);
  EXPECT_THROW(est.abs_gaussian_grid(f, num::Rect{0.0, 0.0, 1.0, 1.0}, 1, 5),
               std::invalid_argument);
}

TEST(CurvatureEstimator, CurvatureHigherAtPeakThanOnFlank) {
  // peaks' relief concentrates curvature near its bumps; far corners of
  // the domain are nearly flat.
  const num::Rect region{0.0, 0.0, 100.0, 100.0};
  const field::PeaksField f(region);
  const CurvatureEstimator est(5.0);
  const double at_center = std::abs(est.gaussian_at(f, {50.0, 50.0}));
  const double at_corner = std::abs(est.gaussian_at(f, {2.0, 2.0}));
  EXPECT_GT(at_center, 10.0 * at_corner);
}

}  // namespace
}  // namespace cps::core

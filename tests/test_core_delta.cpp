// Tests for the delta quality metric (core/delta.hpp).
#include "core/delta.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/fra.hpp"
#include "core/planner.hpp"
#include "core/reconstruction.hpp"
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

// --- Known answer: a convex quadric in closed form ----------------------
//
// For f with quadratic part q(e) = a·ex² + b·ex·ey + c·ey² and a surface
// DT that interpolates f at the vertices of each triangle T, the identity
// Σλᵢq(vᵢ) − q(Σλᵢvᵢ) = Σ_{i<j} λᵢλⱼ q(vᵢ − vⱼ) (any Σλᵢ = 1), with
// ∫_T λᵢλⱼ = A_T / 12, gives ∫_T (DT − f) = (A_T / 12) · Σ_edges q(e).
// A positive-definite q makes DT − f ≥ 0 everywhere, so
//   δ = Σ_T (A_T / 12) · Σ_edges q(e)
// exactly, with no quadrature, and nothing shared with DeltaMetric or
// IncrementalDelta but the triangulation.  δ's midpoint lattice converges
// to it; the tolerances below are about twice the measured gaps.
//
// Not gated: random deployments.  Their slivers (triangles thinner than
// two lattice cells, most of them fanning out from a region corner) hold
// large errors in bands the midpoint lattice under-samples.  For 100
// uniform positions from num::Rng seeds 1-3, δ reads 1-4% below the
// closed form at res 100 and 0.5-1.3% below at res 200; at res 100 the
// slivers account for 92-134% of the gap.  That is the metric's
// resolution, not a fault, and it shrinks with res.

constexpr double kQa = 0.01;
constexpr double kQb = 0.004;
constexpr double kQc = 0.02;

field::QuadricField known_answer_field() {
  return field::QuadricField({37.0, 61.0}, kQa, kQb, kQc);
}

double closed_form_delta(const geo::Delaunay& dt) {
  double sum = 0.0;
  for (const int tid : dt.alive_triangles()) {
    const auto& t = dt.triangle(tid);
    const geo::Vec2 v[3] = {dt.vertex(t.v[0]).pos, dt.vertex(t.v[1]).pos,
                            dt.vertex(t.v[2]).pos};
    double q = 0.0;
    for (int i = 0; i < 3; ++i) {
      const geo::Vec2 e = v[(i + 1) % 3] - v[i];
      q += kQa * e.x * e.x + kQb * e.x * e.y + kQc * e.y * e.y;
    }
    const double area = 0.5 * std::abs((v[1].x - v[0].x) * (v[2].y - v[0].y) -
                                       (v[1].y - v[0].y) * (v[2].x - v[0].x));
    sum += area / 12.0 * q;
  }
  return sum;
}

double closed_form_delta(const field::Field& f,
                         const std::vector<geo::Vec2>& positions) {
  return closed_form_delta(reconstruct_surface(
      take_samples(f, positions), kRegion, CornerPolicy::kFieldValue, &f));
}

TEST(DeltaKnownAnswer, FraTrackedDeltaMatchesTheClosedForm) {
  const auto f = known_answer_field();
  for (const std::size_t res : {std::size_t{100}, std::size_t{200}}) {
    const DeltaMetric metric(kRegion, res);
    // Measured: 1.1e-4 / 1.8e-4 / 1.6e-4 at res 100, 3e-6 / 4.4e-5 /
    // 1.0e-4 at res 200 (k = 25 / 100 / 200).
    const double tol = res == 100 ? 4e-4 : 2.5e-4;
    for (const std::size_t k :
         {std::size_t{25}, std::size_t{100}, std::size_t{200}}) {
      SCOPED_TRACE("res=" + std::to_string(res) + " k=" + std::to_string(k));
      FraConfig cfg;
      cfg.track_delta = &metric;
      const FraResult plan = FraPlanner(cfg).plan_detailed(
          f, PlanRequest{kRegion, k, 10.0});
      ASSERT_EQ(plan.deployment.size(), k);
      const double exact = closed_form_delta(f, plan.deployment.positions);
      EXPECT_LE(std::abs(plan.final_delta - exact), tol * exact)
          << "tracked " << plan.final_delta << " closed form " << exact;
    }
  }
}

TEST(DeltaKnownAnswer, GridDeploymentsConvergeToTheClosedForm) {
  const auto f = known_answer_field();
  const DeltaMetric coarse(kRegion, 100);
  const DeltaMetric fine(kRegion, 200);
  struct Case {
    std::size_t k;          // A side × side grid.
    double coarse_tol;      // Measured 6.7e-4 / 2.8e-3 / 1.5e-2.
    double fine_tol;        // Measured 1.7e-4 / 7.0e-4 / 1.9e-3.
  };
  for (const Case c : {Case{25, 1.5e-3, 4e-4}, Case{100, 6e-3, 1.5e-3},
                       Case{196, 3e-2, 4e-3}}) {
    SCOPED_TRACE("k=" + std::to_string(c.k));
    const auto positions = GridPlanner::make_grid(kRegion, c.k).positions;
    const double exact = closed_form_delta(f, positions);
    const double coarse_gap = std::abs(
        coarse.delta_of_deployment(f, positions, CornerPolicy::kFieldValue) -
        exact);
    const double fine_gap = std::abs(
        fine.delta_of_deployment(f, positions, CornerPolicy::kFieldValue) -
        exact);
    EXPECT_LE(coarse_gap, c.coarse_tol * exact);
    EXPECT_LE(fine_gap, c.fine_tol * exact);
    // The midpoint rule's second order: doubling res cuts the gap ~4x.
    EXPECT_LT(3.0 * fine_gap, coarse_gap);
  }
}

}  // namespace
}  // namespace cps::core

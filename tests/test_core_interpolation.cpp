// Tests for the alternative surface interpolators (core/interpolation.hpp).
#include "core/interpolation.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/delta.hpp"
#include "core/planner.hpp"
#include "field/analytic_fields.hpp"
#include "numerics/rng.hpp"

namespace cps::core {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

std::vector<Sample> random_samples(int n, std::uint64_t seed) {
  num::Rng rng(seed);
  std::vector<Sample> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Sample{{rng.uniform(1.0, 99.0), rng.uniform(1.0, 99.0)},
                         rng.uniform(-3.0, 3.0)});
  }
  return out;
}

TEST(DelaunayField, WrapsTriangulationAsField) {
  const auto samples = random_samples(20, 3);
  const DelaunayField surface(reconstruct_surface(samples, kRegion));
  for (const auto& s : samples) {
    EXPECT_NEAR(surface.value(s.position), s.z, 1e-9);
  }
  EXPECT_EQ(surface.triangulation().vertex_count(), 24u);  // 20 + corners.
}

TEST(MakeDelaunaySurface, SharedPointerPath) {
  const auto samples = random_samples(10, 5);
  const auto surface = make_delaunay_surface(samples, kRegion);
  ASSERT_NE(surface, nullptr);
  EXPECT_NEAR(surface->value(samples[0].position), samples[0].z, 1e-9);
}

TEST(IdwField, Validation) {
  EXPECT_THROW(IdwField({}, 2.0), std::invalid_argument);
  const std::vector<Sample> one{{{1.0, 1.0}, 5.0}};
  EXPECT_THROW(IdwField(one, 0.0), std::invalid_argument);
  EXPECT_THROW(IdwField(one, -1.0), std::invalid_argument);
  EXPECT_THROW(IdwField(one, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(IdwField, ExactAtSamples) {
  const auto samples = random_samples(15, 7);
  const IdwField surface(samples);
  for (const auto& s : samples) {
    EXPECT_NEAR(surface.value(s.position), s.z, 1e-9);
  }
}

TEST(IdwField, BoundedBySampleRange) {
  // Shepard interpolation is a convex combination: never overshoots.
  const auto samples = random_samples(15, 9);
  double lo = 1e18;
  double hi = -1e18;
  for (const auto& s : samples) {
    lo = std::min(lo, s.z);
    hi = std::max(hi, s.z);
  }
  const IdwField surface(samples);
  num::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const double v =
        surface.value(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0));
    ASSERT_GE(v, lo - 1e-9);
    ASSERT_LE(v, hi + 1e-9);
  }
}

TEST(IdwField, SingleSampleIsConstant) {
  const std::vector<Sample> one{{{50.0, 50.0}, 4.0}};
  const IdwField surface(one);
  EXPECT_DOUBLE_EQ(surface.value(0.0, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(surface.value(99.0, 1.0), 4.0);
}

TEST(IdwField, HigherPowerLocalises) {
  // With two samples, a high power makes the midpoint-offset query snap
  // to the closer sample's value more strongly.
  const std::vector<Sample> two{{{0.0, 0.0}, 0.0}, {{10.0, 0.0}, 10.0}};
  const IdwField gentle(two, 1.0);
  const IdwField sharp(two, 6.0);
  // Query nearer the left sample.
  EXPECT_LT(sharp.value(3.0, 0.0), gentle.value(3.0, 0.0));
}

TEST(NearestField, Validation) {
  EXPECT_THROW(NearestField({}), std::invalid_argument);
}

TEST(NearestField, PicksClosestSampleValue) {
  const std::vector<Sample> samples{{{10.0, 10.0}, 1.0},
                                    {{90.0, 90.0}, 2.0}};
  const NearestField surface(samples);
  EXPECT_DOUBLE_EQ(surface.value(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(surface.value(99.0, 99.0), 2.0);
  EXPECT_DOUBLE_EQ(surface.value(10.0, 10.0), 1.0);
}

TEST(Interpolators, DelaunayBeatsBaselinesOnSmoothField) {
  // On a smooth field with a healthy sample budget, piecewise-linear DT
  // should beat both piecewise-constant nearest and global IDW — the
  // premise behind the paper's interpolator choice.
  const field::PeaksField peaks(kRegion);
  const auto positions = GridPlanner::make_grid(kRegion, 100).positions;
  const auto samples = take_samples(peaks, positions);
  const DeltaMetric metric(kRegion, 50);

  const auto dt = make_delaunay_surface(samples, kRegion);
  const IdwField idw(samples);
  const NearestField nearest(samples);

  const double d_dt = metric.delta_between(peaks, *dt);
  const double d_idw = metric.delta_between(peaks, idw);
  const double d_nearest = metric.delta_between(peaks, nearest);
  EXPECT_LT(d_dt, d_idw);
  EXPECT_LT(d_dt, d_nearest);
}

TEST(Interpolators, AllExactOnConstantField) {
  const field::ConstantField flat(2.5);
  const auto positions = GridPlanner::make_grid(kRegion, 9).positions;
  const auto samples = take_samples(flat, positions);
  const DeltaMetric metric(kRegion, 30);
  EXPECT_NEAR(metric.delta_between(flat, *make_delaunay_surface(
                                             samples, kRegion)),
              0.0, 1e-9);
  EXPECT_NEAR(metric.delta_between(flat, IdwField(samples)), 0.0, 1e-9);
  EXPECT_NEAR(metric.delta_between(flat, NearestField(samples)), 0.0, 1e-9);
}

}  // namespace
}  // namespace cps::core

// Tests for environment models (field/*).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "field/analytic_fields.hpp"
#include "field/field.hpp"
#include "field/grid_field.hpp"
#include "field/time_varying.hpp"

namespace cps::field {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

TEST(AnalyticField, WrapsCallable) {
  const AnalyticField f([](double x, double y) { return x * y; });
  EXPECT_DOUBLE_EQ(f.value(3.0, 4.0), 12.0);
  EXPECT_DOUBLE_EQ(f.value({2.0, 5.0}), 10.0);
}

TEST(AnalyticField, EmptyCallableThrows) {
  EXPECT_THROW(AnalyticField(std::function<double(double, double)>{}),
               std::invalid_argument);
}

TEST(ConstantField, IsConstant) {
  const ConstantField f(2.5);
  EXPECT_DOUBLE_EQ(f.value(0.0, 0.0), 2.5);
  EXPECT_DOUBLE_EQ(f.value(1e6, -1e6), 2.5);
}

TEST(PlaneField, MatchesFormula) {
  const PlaneField f(1.0, 2.0, -3.0);
  EXPECT_DOUBLE_EQ(f.value(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(f.value(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(f.value(2.0, 0.5), 3.5);
}

TEST(QuadricField, CenteredQuadric) {
  const QuadricField f({10.0, 20.0}, 1.0, 0.5, -2.0);
  EXPECT_DOUBLE_EQ(f.value(10.0, 20.0), 0.0);  // Zero at centre.
  // At offset (1, 2): 1 + 0.5*2 - 2*4 = -6.
  EXPECT_DOUBLE_EQ(f.value(11.0, 22.0), -6.0);
}

TEST(PeaksField, NativeFormulaLandmarks) {
  // peaks(0, 0) = 3*exp(-1) - 0*... - (1/3)exp(-1) = (8/3) e^-1.
  EXPECT_NEAR(PeaksField::peaks(0.0, 0.0),
              3.0 * std::exp(-1.0) - (1.0 / 3.0) * std::exp(-1.0), 1e-12);
  // Far from the origin everything decays to ~0.
  EXPECT_NEAR(PeaksField::peaks(3.0, 3.0), 0.0, 1e-4);
}

TEST(PeaksField, DomainMappingCoversNativeRange) {
  const PeaksField f(kRegion);
  // Centre of the region maps to native (0, 0).
  EXPECT_NEAR(f.value(50.0, 50.0), PeaksField::peaks(0.0, 0.0), 1e-12);
  // Corner maps to native (-3, -3).
  EXPECT_NEAR(f.value(0.0, 0.0), PeaksField::peaks(-3.0, -3.0), 1e-12);
}

TEST(PeaksField, HasRealRelief) {
  const PeaksField f(kRegion);
  double lo = 1e9;
  double hi = -1e9;
  for (int i = 0; i <= 50; ++i) {
    for (int j = 0; j <= 50; ++j) {
      const double v = f.value(i * 2.0, j * 2.0);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  EXPECT_GT(hi, 5.0);   // Matlab peaks tops out around 8.1.
  EXPECT_LT(lo, -4.0);  // ... and bottoms around -6.5.
}

TEST(PeaksField, EmptyDomainThrows) {
  EXPECT_THROW(PeaksField(num::Rect{0.0, 0.0, 0.0, 1.0}),
               std::invalid_argument);
}

TEST(GaussianMixtureField, BaseAndBump) {
  const GaussianMixtureField f(1.0, {{{50.0, 50.0}, 2.0, 10.0}});
  EXPECT_NEAR(f.value(50.0, 50.0), 3.0, 1e-12);  // base + amplitude.
  // One sigma away: base + amplitude * exp(-1/2).
  EXPECT_NEAR(f.value(60.0, 50.0), 1.0 + 2.0 * std::exp(-0.5), 1e-12);
  // Far away: just base.
  EXPECT_NEAR(f.value(0.0, 0.0), 1.0, 1e-4);
}

TEST(GaussianMixtureField, InvalidSigmaThrows) {
  EXPECT_THROW(GaussianMixtureField(0.0, {{{0.0, 0.0}, 1.0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      GaussianMixtureField(
          0.0, {{{0.0, 0.0}, 1.0, std::numeric_limits<double>::quiet_NaN()}}),
      std::invalid_argument);
}

TEST(GridField, ConstructionValidation) {
  EXPECT_THROW(GridField(kRegion, 1, 5), std::invalid_argument);
  EXPECT_THROW(GridField(num::Rect{0.0, 0.0, 0.0, 1.0}, 3, 3),
               std::invalid_argument);
  EXPECT_THROW(GridField(kRegion, 3, 3, std::vector<double>(8)),
               std::invalid_argument);
}

TEST(GridField, SamplePositionsSpanBounds) {
  const GridField g(kRegion, 11, 11);
  EXPECT_EQ(g.sample_position(0, 0), geo::Vec2(0.0, 0.0));
  EXPECT_EQ(g.sample_position(10, 10), geo::Vec2(100.0, 100.0));
  EXPECT_EQ(g.sample_position(5, 0), geo::Vec2(50.0, 0.0));
}

TEST(GridField, ValueExactAtSamplePoints) {
  const PlaneField plane(0.5, 0.1, -0.2);
  const GridField g = GridField::sample(plane, kRegion, 21, 21);
  for (std::size_t i = 0; i < 21; i += 4) {
    for (std::size_t j = 0; j < 21; j += 4) {
      const auto p = g.sample_position(i, j);
      EXPECT_NEAR(g.value(p), plane.value(p), 1e-12);
    }
  }
}

TEST(GridField, BilinearExactOnBilinearFunction) {
  // f = 2 + x + 3y + 0.05xy is bilinear: interpolation must be exact
  // everywhere, not only at samples.
  const AnalyticField f(
      [](double x, double y) { return 2.0 + x + 3.0 * y + 0.05 * x * y; });
  const GridField g = GridField::sample(f, kRegion, 26, 26);
  for (double x = 0.0; x <= 100.0; x += 7.3) {
    for (double y = 0.0; y <= 100.0; y += 9.1) {
      EXPECT_NEAR(g.value(x, y), f.value(x, y), 1e-9);
    }
  }
}

TEST(GridField, ClampsOutsideQueries) {
  const PlaneField plane(0.0, 1.0, 0.0);
  const GridField g = GridField::sample(plane, kRegion, 11, 11);
  EXPECT_NEAR(g.value(-5.0, 50.0), 0.0, 1e-12);    // Clamped to x = 0.
  EXPECT_NEAR(g.value(120.0, 50.0), 100.0, 1e-12);  // Clamped to x = 100.
}

TEST(GridField, SmallestGridInterpolatesEverywhere) {
  // A 2x2 grid has a single bilinear cell; every query lands in it and
  // the row kernel's i0 = min(cx, nx - 2) clamp must keep indices valid.
  const AnalyticField f(
      [](double x, double y) { return 1.0 + 0.02 * x - 0.01 * y; });
  const GridField g = GridField::sample(f, kRegion, 2, 2);
  for (double x = 0.0; x <= 100.0; x += 12.5) {
    for (double y = 0.0; y <= 100.0; y += 12.5) {
      EXPECT_NEAR(g.value(x, y), f.value(x, y), 1e-12);
    }
  }
}

TEST(GridField, BoundaryRowsAndColumnsMatchSamples) {
  // Queries exactly on the first/last grid row and column hit the weight
  // degeneracies tx = 0, ty = 0 and the cx = nx - 1 / cy = ny - 1 clamps;
  // they must reproduce the stored samples bit for bit.  Spacings of 10
  // and 25 are exactly representable, so the lattice arithmetic
  // round-trips and the interpolation weights are exact.
  const PeaksField relief(kRegion);
  const GridField g = GridField::sample(relief, kRegion, 11, 5);
  for (std::size_t i = 0; i < 11; ++i) {
    EXPECT_EQ(g.value(g.sample_position(i, 0)), g.at(i, 0)) << "bottom " << i;
    EXPECT_EQ(g.value(g.sample_position(i, 4)), g.at(i, 4)) << "top " << i;
  }
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(g.value(g.sample_position(0, j)), g.at(0, j)) << "left " << j;
    EXPECT_EQ(g.value(g.sample_position(10, j)), g.at(10, j))
        << "right " << j;
  }
}

TEST(GridField, MinMaxAndSetters) {
  GridField g(kRegion, 3, 3);
  g.set(1, 2, 5.0);
  g.set(0, 0, -2.0);
  EXPECT_DOUBLE_EQ(g.at(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(g.min_value(), -2.0);
  EXPECT_DOUBLE_EQ(g.max_value(), 5.0);
  EXPECT_THROW(g.at(3, 0), std::out_of_range);
  EXPECT_THROW(g.set(0, 3, 0.0), std::out_of_range);
}

TEST(FieldSlice, FreezesTime) {
  const AnalyticTimeField tv(
      [](double x, double, double t) { return x + 10.0 * t; });
  const FieldSlice at2(tv, 2.0);
  EXPECT_DOUBLE_EQ(at2.value(1.0, 0.0), 21.0);
  EXPECT_DOUBLE_EQ(at2.time(), 2.0);
}

TEST(AnalyticTimeField, Validation) {
  EXPECT_THROW(
      AnalyticTimeField(std::function<double(double, double, double)>{}),
      std::invalid_argument);
}

TEST(StaticTimeField, IgnoresTime) {
  const StaticTimeField f(std::make_shared<ConstantField>(4.0));
  EXPECT_DOUBLE_EQ(f.value({0.0, 0.0}, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(f.value({0.0, 0.0}, 1e6), 4.0);
  EXPECT_THROW(StaticTimeField(nullptr), std::invalid_argument);
}

TEST(FrameSequenceField, LinearInTime) {
  std::vector<GridField> frames{
      GridField::sample(ConstantField(0.0), kRegion, 3, 3),
      GridField::sample(ConstantField(10.0), kRegion, 3, 3)};
  const FrameSequenceField seq(std::move(frames), {0.0, 10.0});
  EXPECT_DOUBLE_EQ(seq.value({50.0, 50.0}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(seq.value({50.0, 50.0}, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(seq.value({50.0, 50.0}, 2.5), 2.5);
  EXPECT_DOUBLE_EQ(seq.value({50.0, 50.0}, 7.5), 7.5);
}

TEST(FrameSequenceField, FrameStampIsTheLowerFrameBitForBit) {
  // At an interior frame stamp the blend weight is 0: the result is that
  // frame alone, and the next frame is not sampled.  An infinite next
  // frame shows it (inf * 0 is NaN), and so does a -0.0 sample
  // (-0.0 * 1 + 0.0 is +0.0).
  const AnalyticField shape([](double x, double y) {
    return x == 50.0 ? -0.0 : 0.3 * x - 0.7 * y + 1.0 / 3.0;
  });
  const GridField stamp = GridField::sample(shape, kRegion, 5, 5);
  std::vector<GridField> frames{
      GridField::sample(ConstantField(1.0), kRegion, 5, 5), stamp,
      GridField::sample(
          ConstantField(std::numeric_limits<double>::infinity()), kRegion, 5,
          5)};
  const FrameSequenceField seq(std::move(frames), {0.0, 10.0, 20.0});
  const std::vector<double> xs{0.0, 12.5, 33.0, 50.0, 71.25, 100.0};
  for (const double y : {0.0, 40.0, 87.5}) {
    std::vector<double> got(xs.size());
    std::vector<double> want(xs.size());
    seq.value_row(y, xs, 10.0, got.data());
    stamp.value_row(y, xs, want.data());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "x=" << xs[i] << " y=" << y;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(seq.value({xs[i], y}, 10.0)),
                std::bit_cast<std::uint64_t>(want[i]))
          << "x=" << xs[i] << " y=" << y;
    }
  }
  EXPECT_TRUE(std::signbit(seq.value({50.0, 50.0}, 10.0)));
}

TEST(FrameSequenceField, ClampsOutsideTimeRange) {
  std::vector<GridField> frames{
      GridField::sample(ConstantField(1.0), kRegion, 3, 3),
      GridField::sample(ConstantField(2.0), kRegion, 3, 3)};
  const FrameSequenceField seq(std::move(frames), {5.0, 6.0});
  EXPECT_DOUBLE_EQ(seq.value({0.0, 0.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(seq.value({0.0, 0.0}, 100.0), 2.0);
}

TEST(FrameSequenceField, SingleFrameIsStatic) {
  std::vector<GridField> frames{
      GridField::sample(ConstantField(3.0), kRegion, 3, 3)};
  const FrameSequenceField seq(std::move(frames), {0.0});
  EXPECT_DOUBLE_EQ(seq.value({1.0, 1.0}, -5.0), 3.0);
  EXPECT_DOUBLE_EQ(seq.value({1.0, 1.0}, 5.0), 3.0);
}

TEST(FrameSequenceField, Validation) {
  std::vector<GridField> two{
      GridField::sample(ConstantField(0.0), kRegion, 3, 3),
      GridField::sample(ConstantField(0.0), kRegion, 3, 3)};
  EXPECT_THROW(FrameSequenceField({}, {}), std::invalid_argument);
  EXPECT_THROW(FrameSequenceField(two, {0.0}), std::invalid_argument);
  auto frames = two;
  EXPECT_THROW(FrameSequenceField(std::move(frames), {1.0, 1.0}),
               std::invalid_argument);
  std::vector<GridField> mismatched{
      GridField::sample(ConstantField(0.0), kRegion, 3, 3),
      GridField::sample(ConstantField(0.0), kRegion, 4, 4)};
  EXPECT_THROW(FrameSequenceField(std::move(mismatched), {0.0, 1.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cps::field

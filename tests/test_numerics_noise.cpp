// Tests for value noise (numerics/noise.hpp).
#include "numerics/noise.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

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
  double out = 0.0;
  const double x = 1.0;
  EXPECT_THROW(n.fbm_row(0.0, {&x, 1}, 0, &out), std::invalid_argument);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(ValueNoise, FbmRowMatchesFbmBitForBit) {
  // Abscissae that stress the row kernel's per-cell caching: sorted runs
  // many points deep that cross cell edges (pitch 0.37 against cells of
  // 1 / frequency), points exactly on cell edges and one ulp either side,
  // repeats, an unsorted tail that revisits cells out of order, negative
  // and large coordinates.
  std::vector<double> xs;
  for (int i = 0; i < 240; ++i) xs.push_back(-41.3 + 0.37 * i);
  for (const double edge : {12.5, -12.5, 25.0, 0.0, 1.0e6}) {
    xs.push_back(std::nextafter(edge, -1.0e300));
    xs.push_back(edge);
    xs.push_back(std::nextafter(edge, 1.0e300));
    xs.push_back(edge);
  }
  for (const double x : {7.1, -3.9, 7.2, 88.0, -250.75, 7.15, 3.0e7, -3.0e7,
                         1.0e6 + 0.5, 12.4, 12.6, -0.01}) {
    xs.push_back(x);
  }
  for (const double frequency : {0.08, 0.5}) {
    const std::uint64_t seed = 0xa5a5a5a5ULL ^ 7;
    const ValueNoise noise(seed, frequency);
    for (const double y : {0.0, 33.3, -17.25, 12.5, 4.0e6}) {
      for (int octaves = 1; octaves <= 4; ++octaves) {
        std::vector<double> row(xs.size(), -7.0);
        noise.fbm_row(y, xs, octaves, row.data());
        for (std::size_t i = 0; i < xs.size(); ++i) {
          // fbm's octave sum spelled out on single-octave layers: seeds
          // step by 0x51ed2701, frequency doubles, amplitude halves.
          double sum = 0.0;
          double amp = 1.0;
          double total = 0.0;
          double scale = 1.0;
          for (int o = 0; o < octaves; ++o) {
            const ValueNoise layer(
                seed + static_cast<std::uint64_t>(o) * 0x51ed2701ULL,
                frequency * scale);
            sum += amp * layer.sample(xs[i], y);
            total += amp;
            amp *= 0.5;
            scale *= 2.0;
          }
          ASSERT_TRUE(same_bits(row[i], sum / total))
              << "x=" << xs[i] << " y=" << y << " octaves=" << octaves
              << " frequency=" << frequency;
          ASSERT_TRUE(same_bits(row[i], noise.fbm(xs[i], y, octaves)));
        }
      }
    }
  }
}

}  // namespace
}  // namespace cps::num

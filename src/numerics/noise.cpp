#include "numerics/noise.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace cps::num {
namespace {

std::uint64_t hash_mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Cosine ease curve: smooth C^1 blend between lattice values.
double ease(double t) noexcept {
  return 0.5 - 0.5 * std::cos(t * std::numbers::pi);
}

// Bilinear blend of a cell's four lattice values at eased weights.
double blend(double v00, double v10, double v01, double v11, double tx,
             double ty) noexcept {
  const double a = v00 * (1.0 - tx) + v10 * tx;
  const double b = v01 * (1.0 - tx) + v11 * tx;
  return a * (1.0 - ty) + b * ty;
}

}  // namespace

ValueNoise::ValueNoise(std::uint64_t seed, double frequency)
    : seed_(seed), frequency_(frequency) {
  if (!(frequency > 0.0)) {
    throw std::invalid_argument("ValueNoise: frequency");
  }
}

double ValueNoise::lattice(std::int64_t ix, std::int64_t iy) const noexcept {
  const std::uint64_t h = hash_mix(
      seed_ ^ (static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ULL) ^
      (static_cast<std::uint64_t>(iy) * 0xc2b2ae3d27d4eb4fULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;
}

double ValueNoise::sample(double x, double y) const noexcept {
  const double fx = x * frequency_;
  const double fy = y * frequency_;
  const auto ix = static_cast<std::int64_t>(std::floor(fx));
  const auto iy = static_cast<std::int64_t>(std::floor(fy));
  const double tx = ease(fx - static_cast<double>(ix));
  const double ty = ease(fy - static_cast<double>(iy));
  return blend(lattice(ix, iy), lattice(ix + 1, iy), lattice(ix, iy + 1),
               lattice(ix + 1, iy + 1), tx, ty);
}

void ValueNoise::accumulate_row(double y, std::span<const double> xs,
                                double amp, double* out) const noexcept {
  const double fy = y * frequency_;
  const auto iy = static_cast<std::int64_t>(std::floor(fy));
  const double ty = ease(fy - static_cast<double>(iy));
  std::int64_t cell = 0;
  double v00 = 0.0, v10 = 0.0, v01 = 0.0, v11 = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double fx = xs[i] * frequency_;
    const auto ix = static_cast<std::int64_t>(std::floor(fx));
    const double tx = ease(fx - static_cast<double>(ix));
    if (i == 0 || ix != cell) {
      cell = ix;
      v00 = lattice(ix, iy);
      v10 = lattice(ix + 1, iy);
      v01 = lattice(ix, iy + 1);
      v11 = lattice(ix + 1, iy + 1);
    }
    out[i] += amp * blend(v00, v10, v01, v11, tx, ty);
  }
}

double ValueNoise::fbm(double x, double y, int octaves) const {
  double out = 0.0;
  fbm_row(y, {&x, 1}, octaves, &out);
  return out;
}

void ValueNoise::fbm_row(double y, std::span<const double> xs, int octaves,
                         double* out) const {
  if (octaves < 1) throw std::invalid_argument("ValueNoise::fbm: octaves");
  // Octave-ordered accumulation from 0.0, then one division by the
  // amplitude total: the rounding sequence of a per-point octave loop.
  std::fill(out, out + xs.size(), 0.0);
  double amp = 1.0;
  double total = 0.0;
  double scale = 1.0;
  for (int o = 0; o < octaves; ++o) {
    const ValueNoise layer(
        seed_ + static_cast<std::uint64_t>(o) * 0x51ed2701ULL,
        frequency_ * scale);
    layer.accumulate_row(y, xs, amp, out);
    total += amp;
    amp *= 0.5;
    scale *= 2.0;
  }
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = out[i] / total;
}

}  // namespace cps::num

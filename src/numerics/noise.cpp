#include "numerics/noise.hpp"

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
  const double v00 = lattice(ix, iy);
  const double v10 = lattice(ix + 1, iy);
  const double v01 = lattice(ix, iy + 1);
  const double v11 = lattice(ix + 1, iy + 1);
  const double a = v00 * (1.0 - tx) + v10 * tx;
  const double b = v01 * (1.0 - tx) + v11 * tx;
  return a * (1.0 - ty) + b * ty;
}

double ValueNoise::fbm(double x, double y, int octaves) const {
  if (octaves < 1) throw std::invalid_argument("ValueNoise::fbm: octaves");
  double sum = 0.0;
  double amp = 1.0;
  double total = 0.0;
  double scale = 1.0;
  for (int o = 0; o < octaves; ++o) {
    ValueNoise layer(seed_ + static_cast<std::uint64_t>(o) * 0x51ed2701ULL,
                     frequency_ * scale);
    sum += amp * layer.sample(x, y);
    total += amp;
    amp *= 0.5;
    scale *= 2.0;
  }
  return sum / total;
}

}  // namespace cps::num

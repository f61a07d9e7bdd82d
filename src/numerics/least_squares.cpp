#include "numerics/least_squares.hpp"

#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace cps::num {
namespace {

using Mat3 = std::array<double, 9>;  // Row-major.
using Vec3 = std::array<double, 3>;

/// Solves a x = b by LU with partial pivoting: the first strictly largest
/// |pivot| wins, rows (multipliers included) swap whole, and the RHS is
/// read through the row permutation during forward substitution.  Throws
/// std::domain_error when a column's best pivot is below 1e-300.
Vec3 solve3(Mat3 a, const Vec3& b) {
  const auto at = [&a](std::size_t r, std::size_t c) -> double& {
    return a[r * 3 + c];
  };
  std::array<std::size_t, 3> perm{0, 1, 2};
  for (std::size_t col = 0; col < 3; ++col) {
    std::size_t pivot = col;
    double best = std::abs(at(col, col));
    for (std::size_t r = col + 1; r < 3; ++r) {
      const double v = std::abs(at(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) throw std::domain_error("fit_quadric: singular");
    if (pivot != col) {
      for (std::size_t c = 0; c < 3; ++c) std::swap(at(col, c), at(pivot, c));
      std::swap(perm[col], perm[pivot]);
    }
    for (std::size_t r = col + 1; r < 3; ++r) {
      const double f = at(r, col) / at(col, col);
      at(r, col) = f;
      for (std::size_t c = col + 1; c < 3; ++c) at(r, c) -= f * at(col, c);
    }
  }
  Vec3 x{};
  for (std::size_t i = 0; i < 3; ++i) {
    double s = b[perm[i]];
    for (std::size_t j = 0; j < i; ++j) s -= at(i, j) * x[j];
    x[i] = s;
  }
  for (std::size_t ii = 3; ii-- > 0;) {
    double s = x[ii];
    for (std::size_t j = ii + 1; j < 3; ++j) s -= at(ii, j) * x[j];
    x[ii] = s / at(ii, ii);
  }
  return x;
}

}  // namespace

double QuadricFit::g1() const noexcept {
  return a + c - std::sqrt((a - c) * (a - c) + b * b);
}

double QuadricFit::g2() const noexcept {
  return a + c + std::sqrt((a - c) * (a - c) + b * b);
}

double QuadricFit::gaussian() const noexcept { return g1() * g2(); }

double QuadricFit::evaluate(double dx, double dy) const noexcept {
  return a * dx * dx + b * dx * dy + c * dy * dy;
}

QuadricFit fit_quadric(std::span<const QuadricSample> samples) {
  if (samples.size() < 3) {
    throw std::invalid_argument("fit_quadric: need >= 3 samples");
  }
  // Normal equations on the 3-parameter design; with a tiny ridge term the
  // 3x3 system is always solvable, and for well-posed designs the ridge
  // perturbs the result below measurement noise.
  Mat3 ata{};
  Vec3 atb{};
  for (const auto& s : samples) {
    const double row[3] = {s.dx * s.dx, s.dx * s.dy, s.dy * s.dy};
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) ata[i * 3 + j] += row[i] * row[j];
      atb[i] += row[i] * s.dz;
    }
  }
  double sum_sq = 0.0;  // Frobenius norm, summed in row-major order.
  for (const double v : ata) sum_sq += v * v;
  const double ridge = 1e-9 * (1.0 + std::sqrt(sum_sq));
  for (std::size_t i = 0; i < 3; ++i) ata[i * 3 + i] += ridge;
  const Vec3 x = solve3(ata, atb);
  return QuadricFit{x[0], x[1], x[2]};
}

}  // namespace cps::num

// The midpoint-rule lattice over rectangular regions.  Used by the delta
// metric (Theorem 3.1: the volume difference between the referential and
// rebuilt surface polytopes reduces to the integral of |f - DT| over the
// region, which delta evaluates by the midpoint rule on this lattice).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cps::num {

/// Axis-aligned rectangle [x0, x1] x [y0, y1].
struct Rect {
  double x0 = 0.0;
  double y0 = 0.0;
  double x1 = 0.0;
  double y1 = 0.0;

  double width() const noexcept { return x1 - x0; }
  double height() const noexcept { return y1 - y0; }
  double area() const noexcept { return width() * height(); }
  bool contains(double x, double y) const noexcept {
    return x >= x0 && x <= x1 && y >= y0 && y <= y1;
  }
};

/// The midpoint-rule evaluation lattice over a rect: cell midpoints
/// x_i = x0 + (i + 0.5) hx, y_j = y0 + (j + 0.5) hy.  One definition shared
/// by every delta sweep so their grids are the same bits — the abscissae
/// are precomputed once per lattice and handed to batched row kernels
/// (field::Field::value_row) instead of being re-derived per row.  Throws
/// std::invalid_argument when nx or ny is zero or the rect is inverted.
class MidpointLattice {
 public:
  MidpointLattice(const Rect& rect, std::size_t nx, std::size_t ny);

  std::size_t nx() const noexcept { return xs_.size(); }
  std::size_t ny() const noexcept { return ny_; }
  double hx() const noexcept { return hx_; }
  double hy() const noexcept { return hy_; }

  /// All row abscissae (shared by every row).
  std::span<const double> xs() const noexcept { return xs_; }

  /// Ordinate of row j.
  double y(std::size_t j) const noexcept {
    return y0_ + (static_cast<double>(j) + 0.5) * hy_;
  }

 private:
  double y0_ = 0.0;
  double hx_ = 0.0;
  double hy_ = 0.0;
  std::size_t ny_ = 0;
  std::vector<double> xs_;
};

}  // namespace cps::num

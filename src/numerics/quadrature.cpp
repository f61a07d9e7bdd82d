#include "numerics/quadrature.hpp"

#include <stdexcept>

#include "parallel/simd.hpp"

namespace cps::num {

MidpointLattice::MidpointLattice(const Rect& rect, std::size_t nx,
                                 std::size_t ny)
    : y0_(rect.y0),
      hx_(rect.width() / static_cast<double>(nx)),
      hy_(rect.height() / static_cast<double>(ny)),
      ny_(ny) {
  if (nx == 0 || ny == 0) {
    throw std::invalid_argument("MidpointLattice: zero cells");
  }
  if (rect.x1 < rect.x0 || rect.y1 < rect.y0) {
    throw std::invalid_argument("MidpointLattice: inverted rect");
  }
  xs_.resize(nx);
  double* xs = xs_.data();
  CPS_SIMD
  for (std::size_t i = 0; i < nx; ++i) {
    xs[i] = rect.x0 + (static_cast<double>(i) + 0.5) * hx_;
  }
}

}  // namespace cps::num

// Geometric predicates with static floating-point filters.
//
// The library triangulates grid-aligned sample positions, which are exactly
// the inputs that defeat naive double-precision predicates (many collinear
// and cocircular quadruples).  Each predicate first evaluates in double with
// a Shewchuk-style static error bound; ambiguous cases are re-evaluated in
// long double, and results still inside the long-double error bound are
// reported as degenerate (0).  That is not fully exact arithmetic, but the
// triangulation only needs *consistent, conservative* answers: a cocircular
// quadruple reported as "on the circle" keeps Bowyer-Watson cavities valid
// (the point is simply not pulled into the cavity).
#pragma once

#include <cmath>
#include <limits>

#include "geometry/vec2.hpp"

namespace cps::geo {

namespace detail {

/// Half the type's epsilon (Shewchuk's machine epsilon convention).
template <typename F>
constexpr F machine_eps = std::numeric_limits<F>::epsilon() / F(2);

/// Static filter bound of orient2d, (3 + 16e)e, from Shewchuk's "Adaptive
/// Precision Floating-Point Arithmetic and Fast Robust Geometric
/// Predicates".  Deriving it from numeric_limits keeps the long-double
/// retry correct on platforms where long double is 80-bit x87, 128-bit
/// quad, double-double — or plain double (MSVC, some ARM ABIs), where a
/// hardcoded 1e-19 would claim precision the type does not have and turn
/// near-degenerate cases into wrong nonzero signs.
template <typename F>
constexpr F orient_bound = (F(3) + F(16) * machine_eps<F>)*machine_eps<F>;

/// One filtered orient2d stage at precision F: the determinant's sign when
/// the static bound certifies it, 0 when it is ambiguous at F.
template <typename F>
inline int orient_filtered(F ax, F ay, F bx, F by, F cx, F cy) noexcept {
  const F detl = (bx - ax) * (cy - ay);
  const F detr = (by - ay) * (cx - ax);
  const F det = detl - detr;
  const F detsum = std::abs(detl) + std::abs(detr);
  if (std::abs(det) > orient_bound<F> * detsum) return det > 0 ? 1 : -1;
  return 0;
}

}  // namespace detail

/// orient2d's first stage alone: +1 / -1 when the double-precision static
/// filter certifies the sign, 0 when it cannot (orient2d then retries at
/// long double).  A nonzero answer is exactly what orient2d returns, so
/// hot loops can filter several edges before committing to any retry.
inline int orient2d_filter(Vec2 a, Vec2 b, Vec2 c) noexcept {
  return detail::orient_filtered<double>(a.x, a.y, b.x, b.y, c.x, c.y);
}

/// Sign of the signed area of triangle (a, b, c):
/// +1 when counter-clockwise, -1 when clockwise, 0 when (near-)collinear.
int orient2d(Vec2 a, Vec2 b, Vec2 c) noexcept;

/// Raw signed doubled area (no filtering); useful when magnitude matters.
/// Inline: the barycentric and interpolation hot loops call it per point.
inline double orient2d_value(Vec2 a, Vec2 b, Vec2 c) noexcept {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

/// Sign of the incircle determinant for CCW triangle (a, b, c):
/// +1 when d is strictly inside the circumcircle, -1 strictly outside,
/// 0 when (near-)cocircular.  The caller must pass a CCW triangle;
/// orientation is not re-checked here (hot path).
int incircle(Vec2 a, Vec2 b, Vec2 c, Vec2 d) noexcept;

}  // namespace cps::geo

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

#include "geometry/vec2.hpp"

namespace cps::geo {

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

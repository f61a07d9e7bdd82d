// Triangle utilities: barycentric coordinates, containment, circumcircles.
#pragma once

#include <array>
#include <optional>

#include "geometry/predicates.hpp"
#include "geometry/vec2.hpp"

namespace cps::geo {

/// Barycentric coordinates (w0, w1, w2) of a query point with respect to a
/// triangle; they sum to 1 for non-degenerate triangles.
struct Barycentric {
  double w0 = 0.0;
  double w1 = 0.0;
  double w2 = 0.0;

  /// True when the point is inside or on the triangle boundary
  /// (all weights >= -tol).
  bool inside(double tol = 1e-12) const noexcept {
    return w0 >= -tol && w1 >= -tol && w2 >= -tol;
  }
};

/// Circumcircle centre and squared radius.
struct Circumcircle {
  Vec2 center;
  double radius_sq = 0.0;
};

/// Immutable triangle over three points.  No orientation requirement unless
/// a member says otherwise.
class Triangle {
 public:
  constexpr Triangle(Vec2 a, Vec2 b, Vec2 c) noexcept : v_{a, b, c} {}

  constexpr Vec2 a() const noexcept { return v_[0]; }
  constexpr Vec2 b() const noexcept { return v_[1]; }
  constexpr Vec2 c() const noexcept { return v_[2]; }
  constexpr Vec2 vertex(int i) const noexcept {
    return v_[static_cast<std::size_t>(i)];
  }

  /// Signed area (positive for counter-clockwise winding).
  double signed_area() const noexcept;
  double area() const noexcept;

  /// Degenerate when |signed area| is below `tol` times the squared size.
  bool degenerate(double tol = 1e-12) const noexcept;

  /// Barycentric coordinates of p.  For degenerate triangles all weights
  /// are returned as +inf-free garbage guarded by `degenerate()`; callers
  /// must check degeneracy first (the Delaunay structure never stores
  /// degenerate triangles).
  Barycentric barycentric(Vec2 p) const noexcept {
    const double total = orient2d_value(v_[0], v_[1], v_[2]);
    if (total == 0.0) return {};
    const double w0 = orient2d_value(p, v_[1], v_[2]) / total;
    const double w1 = orient2d_value(v_[0], p, v_[2]) / total;
    return {w0, w1, 1.0 - w0 - w1};
  }

  /// Default slack of contains(), in barycentric units.
  static constexpr double kContainsTol = 1e-9;

  /// True if p lies inside or on the boundary (barycentric(p).inside(tol)).
  bool contains(Vec2 p, double tol = kContainsTol) const noexcept {
    return barycentric(p).inside(tol);
  }

  /// Circumcircle; std::nullopt for degenerate triangles.
  std::optional<Circumcircle> circumcircle() const noexcept;

  Vec2 centroid() const noexcept {
    return (v_[0] + v_[1] + v_[2]) / 3.0;
  }

  /// Length of the longest edge.
  double longest_edge() const noexcept;

 private:
  std::array<Vec2, 3> v_;
};

/// Linearly interpolates values (za, zb, zc) attached to the triangle's
/// vertices at point p (piecewise-linear surface evaluation).  p should be
/// inside the triangle; outside points are linearly extrapolated.
double interpolate_linear(const Triangle& t, double za, double zb, double zc,
                          Vec2 p) noexcept;

/// The same interpolation from weights already in hand (w = t.barycentric(p)
/// gives interpolate_linear(t, za, zb, zc, p)'s bits).
inline double interpolate_linear(const Barycentric& w, double za, double zb,
                                 double zc) noexcept {
  return w.w0 * za + w.w1 * zb + w.w2 * zc;
}

}  // namespace cps::geo

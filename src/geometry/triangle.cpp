#include "geometry/triangle.hpp"

#include <algorithm>
#include <cmath>

#include "geometry/predicates.hpp"

namespace cps::geo {

double Triangle::signed_area() const noexcept {
  return 0.5 * orient2d_value(v_[0], v_[1], v_[2]);
}

double Triangle::area() const noexcept { return std::abs(signed_area()); }

bool Triangle::degenerate(double tol) const noexcept {
  const double scale = std::max({distance_sq(v_[0], v_[1]),
                                 distance_sq(v_[1], v_[2]),
                                 distance_sq(v_[2], v_[0])});
  return std::abs(signed_area()) <= tol * std::max(scale, 1e-300);
}

std::optional<Circumcircle> Triangle::circumcircle() const noexcept {
  const double d = 2.0 * orient2d_value(v_[0], v_[1], v_[2]);
  if (d == 0.0) return std::nullopt;
  const Vec2 a = v_[0];
  const Vec2 b = v_[1];
  const Vec2 c = v_[2];
  const double a2 = a.norm_sq();
  const double b2 = b.norm_sq();
  const double c2 = c.norm_sq();
  const Vec2 center{
      (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d,
      (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d};
  return Circumcircle{center, distance_sq(center, a)};
}

double Triangle::longest_edge() const noexcept {
  return std::sqrt(std::max({distance_sq(v_[0], v_[1]),
                             distance_sq(v_[1], v_[2]),
                             distance_sq(v_[2], v_[0])}));
}

double interpolate_linear(const Triangle& t, double za, double zb, double zc,
                          Vec2 p) noexcept {
  return interpolate_linear(t.barycentric(p), za, zb, zc);
}

}  // namespace cps::geo

#include "geometry/predicates.hpp"

#include <cmath>
#include <limits>

namespace cps::geo {
namespace {

using detail::machine_eps;

// incircle's static filter bound, (10 + 96e)e (Shewchuk; orient2d's lives
// with its filter in predicates.hpp).
template <typename F>
constexpr F incircle_bound =
    (F(10) + F(96) * machine_eps<F>)*machine_eps<F>;

// The retry only helps when long double actually carries more mantissa
// bits than double.
constexpr bool kLongDoubleAddsPrecision =
    std::numeric_limits<long double>::digits >
    std::numeric_limits<double>::digits;

template <typename F>
int incircle_impl(F ax, F ay, F bx, F by, F cx, F cy, F dx, F dy,
                  F err_bound) noexcept {
  const F adx = ax - dx;
  const F ady = ay - dy;
  const F bdx = bx - dx;
  const F bdy = by - dy;
  const F cdx = cx - dx;
  const F cdy = cy - dy;

  const F bdxcdy = bdx * cdy;
  const F cdxbdy = cdx * bdy;
  const F alift = adx * adx + ady * ady;

  const F cdxady = cdx * ady;
  const F adxcdy = adx * cdy;
  const F blift = bdx * bdx + bdy * bdy;

  const F adxbdy = adx * bdy;
  const F bdxady = bdx * ady;
  const F clift = cdx * cdx + cdy * cdy;

  const F det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                clift * (adxbdy - bdxady);

  const F permanent = (std::abs(bdxcdy) + std::abs(cdxbdy)) * alift +
                      (std::abs(cdxady) + std::abs(adxcdy)) * blift +
                      (std::abs(adxbdy) + std::abs(bdxady)) * clift;
  if (std::abs(det) > err_bound * permanent) return det > 0 ? 1 : -1;
  return 0;
}

}  // namespace

int orient2d(Vec2 a, Vec2 b, Vec2 c) noexcept {
  const int fast = orient2d_filter(a, b, c);
  if (fast != 0) return fast;
  if (!kLongDoubleAddsPrecision) return 0;
  // Retry at extended precision; a result still inside the long-double error
  // bound is genuinely (or as good as) collinear.
  return detail::orient_filtered<long double>(a.x, a.y, b.x, b.y, c.x, c.y);
}

int incircle(Vec2 a, Vec2 b, Vec2 c, Vec2 d) noexcept {
  const int fast = incircle_impl<double>(a.x, a.y, b.x, b.y, c.x, c.y, d.x,
                                         d.y, incircle_bound<double>);
  if (fast != 0) return fast;
  if (!kLongDoubleAddsPrecision) return 0;
  return incircle_impl<long double>(a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y,
                                    incircle_bound<long double>);
}

}  // namespace cps::geo

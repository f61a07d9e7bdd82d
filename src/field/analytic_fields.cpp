#include "field/analytic_fields.hpp"

#include <cmath>
#include <stdexcept>

namespace cps::field {

AnalyticField::AnalyticField(std::function<double(double, double)> fn)
    : fn_(std::move(fn)) {
  if (!fn_) throw std::invalid_argument("AnalyticField: empty callable");
}

PeaksField::PeaksField(const num::Rect& domain) : domain_(domain) {
  if (domain.width() <= 0.0 || domain.height() <= 0.0) {
    throw std::invalid_argument("PeaksField: empty domain");
  }
}

double PeaksField::peaks(double u, double v) noexcept {
  return 3.0 * (1.0 - u) * (1.0 - u) * std::exp(-u * u - (v + 1.0) * (v + 1.0)) -
         10.0 * (u / 5.0 - u * u * u - std::pow(v, 5.0)) *
             std::exp(-u * u - v * v) -
         (1.0 / 3.0) * std::exp(-(u + 1.0) * (u + 1.0) - v * v);
}

double PeaksField::do_value(geo::Vec2 p) const {
  const double u = -3.0 + 6.0 * (p.x - domain_.x0) / domain_.width();
  const double v = -3.0 + 6.0 * (p.y - domain_.y0) / domain_.height();
  return peaks(u, v);
}

void PeaksField::do_value_row(double y, std::span<const double> xs,
                              double* out) const {
  // Split form of peaks(u, v) with the row-invariant subexpressions
  // hoisted: (v+1)^2, v^2, and v^5 are the same doubles per point whether
  // computed once or n times, and the per-point operand order matches
  // peaks() exactly, so the row is bit-identical to the scalar calls.
  // The three exponentials stay in plain scalar loops: a vectorized
  // std::exp would route to libmvec, whose results differ from scalar
  // libm in the last ulp.  Everything else — the u map, the exponent
  // arguments, the polynomial combine — is element-wise arithmetic and
  // vectorizes.
  const double v = -3.0 + 6.0 * (y - domain_.y0) / domain_.height();
  const double v_sq = v * v;
  const double vp1_sq = (v + 1.0) * (v + 1.0);
  const double v5 = std::pow(v, 5.0);
  const std::size_t n = xs.size();
  thread_local std::vector<double> us, e1, e2, e3;
  us.resize(n);
  e1.resize(n);
  e2.resize(n);
  e3.resize(n);
  CPS_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    const double u = -3.0 + 6.0 * (xs[i] - domain_.x0) / domain_.width();
    us[i] = u;
    e1[i] = -u * u - vp1_sq;
    e2[i] = -u * u - v_sq;
    e3[i] = -(u + 1.0) * (u + 1.0) - v_sq;
  }
  for (std::size_t i = 0; i < n; ++i) e1[i] = std::exp(e1[i]);
  for (std::size_t i = 0; i < n; ++i) e2[i] = std::exp(e2[i]);
  for (std::size_t i = 0; i < n; ++i) e3[i] = std::exp(e3[i]);
  CPS_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    const double u = us[i];
    out[i] = 3.0 * (1.0 - u) * (1.0 - u) * e1[i] -
             10.0 * (u / 5.0 - u * u * u - v5) * e2[i] -
             (1.0 / 3.0) * e3[i];
  }
}

std::uint64_t PeaksField::do_content_key() const {
  std::uint64_t h =
      fieldkey::combine(fieldtag::kPeaks, fieldkey::bits(domain_.x0));
  h = fieldkey::combine(h, fieldkey::bits(domain_.y0));
  h = fieldkey::combine(h, fieldkey::bits(domain_.x1));
  return fieldkey::combine(h, fieldkey::bits(domain_.y1));
}

GaussianMixtureField::GaussianMixtureField(double base,
                                           std::vector<GaussianBump> bumps)
    : base_(base), bumps_(std::move(bumps)) {
  for (const auto& b : bumps_) {
    if (!(b.sigma > 0.0)) {
      throw std::invalid_argument("GaussianMixtureField: sigma <= 0");
    }
  }
}

double GaussianMixtureField::do_value(geo::Vec2 p) const {
  double z = base_;
  for (const auto& b : bumps_) {
    const double r2 = distance_sq(p, b.center);
    z += b.amplitude * std::exp(-r2 / (2.0 * b.sigma * b.sigma));
  }
  return z;
}

void GaussianMixtureField::do_value_row(double y, std::span<const double> xs,
                                        double* out) const {
  // Bump-outer restructuring of the scalar kernel: each point still
  // accumulates base + bump0 + bump1 + ... in declaration order, so the
  // per-point addition sequence — and therefore every intermediate
  // rounding — matches do_value exactly.  Per bump, a vectorizable pass
  // computes the exponent arguments (distance_sq spelled out in its
  // dx*dx + dy*dy evaluation order), a scalar pass applies std::exp
  // (libmvec is not bit-identical to scalar libm), and a vectorizable
  // pass folds the bump into the accumulator row.
  const std::size_t n = xs.size();
  CPS_SIMD
  for (std::size_t i = 0; i < n; ++i) out[i] = base_;
  thread_local std::vector<double> arg;
  arg.resize(n);
  for (const auto& b : bumps_) {
    const double cx = b.center.x;
    const double cy = b.center.y;
    const double dy_sq = (y - cy) * (y - cy);
    const double denom = 2.0 * b.sigma * b.sigma;
    const double amplitude = b.amplitude;
    CPS_SIMD
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = xs[i] - cx;
      const double r2 = dx * dx + dy_sq;
      arg[i] = -r2 / denom;
    }
    for (std::size_t i = 0; i < n; ++i) arg[i] = std::exp(arg[i]);
    CPS_SIMD
    for (std::size_t i = 0; i < n; ++i) out[i] += amplitude * arg[i];
  }
}

std::uint64_t GaussianMixtureField::do_content_key() const {
  std::uint64_t h =
      fieldkey::combine(fieldtag::kMixture, fieldkey::bits(base_));
  for (const auto& b : bumps_) {
    h = fieldkey::combine(h, fieldkey::bits(b.center.x));
    h = fieldkey::combine(h, fieldkey::bits(b.center.y));
    h = fieldkey::combine(h, fieldkey::bits(b.amplitude));
    h = fieldkey::combine(h, fieldkey::bits(b.sigma));
  }
  return h;
}

}  // namespace cps::field

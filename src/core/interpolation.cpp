#include "core/interpolation.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace cps::core {

IdwField::IdwField(std::span<const Sample> samples, double power)
    : samples_(samples.begin(), samples.end()), power_(power) {
  if (samples_.empty()) throw std::invalid_argument("IdwField: no samples");
  if (!(power > 0.0)) throw std::invalid_argument("IdwField: power <= 0");
}

double IdwField::do_value(geo::Vec2 p) const {
  double weight_sum = 0.0;
  double value_sum = 0.0;
  for (const auto& s : samples_) {
    const double d2 = geo::distance_sq(p, s.position);
    if (d2 < 1e-18) return s.z;  // Exact at (and immediately around) samples.
    // w = d^-power, computed via d2^(power/2) to avoid a sqrt.
    const double w = 1.0 / std::pow(d2, 0.5 * power_);
    weight_sum += w;
    value_sum += w * s.z;
  }
  return value_sum / weight_sum;
}

NearestField::NearestField(std::span<const Sample> samples)
    : samples_(samples.begin(), samples.end()) {
  if (samples_.empty()) {
    throw std::invalid_argument("NearestField: no samples");
  }
}

double NearestField::do_value(geo::Vec2 p) const {
  double best = std::numeric_limits<double>::infinity();
  double z = 0.0;
  for (const auto& s : samples_) {
    const double d2 = geo::distance_sq(p, s.position);
    if (d2 < best) {
      best = d2;
      z = s.z;
    }
  }
  return z;
}

std::shared_ptr<const field::Field> make_delaunay_surface(
    std::span<const Sample> samples, const num::Rect& region,
    CornerPolicy policy, const field::Field* reference) {
  return std::make_shared<DelaunayField>(
      reconstruct_surface(samples, region, policy, reference));
}

}  // namespace cps::core

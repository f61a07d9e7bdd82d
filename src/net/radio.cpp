#include "net/radio.hpp"

#include <cmath>
#include <stdexcept>

namespace cps::net {

DiskRadio::DiskRadio(double radius, double loss_probability,
                     std::uint64_t seed)
    : radius_(radius), loss_(loss_probability), rng_(seed) {
  if (!(radius > 0.0) || !std::isfinite(radius)) {
    throw std::invalid_argument("DiskRadio: radius not positive and finite");
  }
  if (!(loss_probability >= 0.0 && loss_probability <= 1.0)) {
    throw std::invalid_argument("DiskRadio: loss probability");
  }
}

bool DiskRadio::in_range(geo::Vec2 a, geo::Vec2 b) const noexcept {
  return geo::distance_sq(a, b) <= radius_ * radius_;
}

bool DiskRadio::transmit(geo::Vec2 from, geo::Vec2 to) noexcept {
  if (!in_range(from, to)) return false;
  return loss_ == 0.0 || !rng_.bernoulli(loss_);
}

}  // namespace cps::net

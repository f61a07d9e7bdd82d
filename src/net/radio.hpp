// Disk radio model.
//
// The paper's CPS nodes carry a wireless module with communication radius
// Rc (Section 3.1); two nodes are single-hop neighbours when their distance
// is at most Rc.  DiskRadio captures that rule plus an optional i.i.d.
// packet-loss probability, which the robustness benches use to check CMA
// under lossy beacons.
#pragma once

#include "geometry/vec2.hpp"
#include "numerics/rng.hpp"

namespace cps::net {

/// Link-level model: deterministic disk connectivity with optional loss.
class DiskRadio {
 public:
  /// radius > 0 and finite, loss_probability in [0, 1];
  /// std::invalid_argument otherwise.
  explicit DiskRadio(double radius, double loss_probability = 0.0,
                     std::uint64_t seed = 1);

  double radius() const noexcept { return radius_; }
  double loss_probability() const noexcept { return loss_; }

  /// True when a and b are within communication range (distance <= Rc).
  bool in_range(geo::Vec2 a, geo::Vec2 b) const noexcept;

  /// Samples one transmission attempt between in-range endpoints; always
  /// false when out of range.  Mutates the internal loss RNG.
  bool transmit(geo::Vec2 from, geo::Vec2 to) noexcept;

 private:
  double radius_;
  double loss_;
  num::Rng rng_;
};

}  // namespace cps::net

#include "core/coverage.hpp"

#include <stdexcept>

namespace cps::core {
namespace {

void validate(double radius, const num::Rect& region,
              std::size_t resolution) {
  if (!(radius > 0.0)) throw std::invalid_argument("coverage: radius <= 0");
  if (resolution == 0) throw std::invalid_argument("coverage: resolution");
  if (region.width() <= 0.0 || region.height() <= 0.0) {
    throw std::invalid_argument("coverage: empty region");
  }
}

}  // namespace

double covered_area(std::span<const geo::Vec2> nodes, double sensing_radius,
                    const num::Rect& region, std::size_t multiplicity,
                    std::size_t resolution) {
  validate(sensing_radius, region, resolution);
  if (multiplicity == 0) return region.area();
  if (nodes.empty()) return 0.0;
  const double r2 = sensing_radius * sensing_radius;
  const double hx = region.width() / static_cast<double>(resolution);
  const double hy = region.height() / static_cast<double>(resolution);
  std::size_t covered = 0;
  for (std::size_t j = 0; j < resolution; ++j) {
    const double y = region.y0 + (static_cast<double>(j) + 0.5) * hy;
    for (std::size_t i = 0; i < resolution; ++i) {
      const geo::Vec2 p{region.x0 + (static_cast<double>(i) + 0.5) * hx, y};
      std::size_t hits = 0;
      for (const auto& n : nodes) {
        if (geo::distance_sq(p, n) <= r2 && ++hits >= multiplicity) break;
      }
      if (hits >= multiplicity) ++covered;
    }
  }
  return static_cast<double>(covered) * hx * hy;
}

double coverage_fraction(std::span<const geo::Vec2> nodes,
                         double sensing_radius, const num::Rect& region,
                         std::size_t resolution) {
  return covered_area(nodes, sensing_radius, region, 1, resolution) /
         region.area();
}

}  // namespace cps::core

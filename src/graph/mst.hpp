// Minimum spanning trees over groups of points (dense Prim).
//
// FRA's foresight step (Table 1) runs Prim over the connected components of
// the partial deployment to decide the cheapest set of inter-component
// links, then spends the remaining node budget as relays along those links.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geometry/vec2.hpp"

namespace cps::graph {

/// MST over *groups* of points: the distance between two groups is their
/// closest-pair distance, and each returned edge records the closest pair
/// realising it.  `groups` must be non-empty point sets; throws
/// std::invalid_argument otherwise.
struct GroupEdge {
  std::size_t group_a = 0;
  std::size_t group_b = 0;
  geo::Vec2 point_a;  ///< Closest point inside group_a.
  geo::Vec2 point_b;  ///< Closest point inside group_b.
  double distance = 0.0;
};

std::vector<GroupEdge> prim_group_mst(
    std::span<const std::vector<geo::Vec2>> groups);

}  // namespace cps::graph

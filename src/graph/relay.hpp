// Relay planning: the L(G, r) / P(G, i) primitives of FRA (Table 1).
//
// Given a partial deployment whose disk graph has several connected
// components, compute (a) the least number of additional relay nodes that
// stitches the components into one network — L(G, r) — and (b) concrete
// relay positions — P(G, i).  Relays are spaced along the closest-pair
// segments of the component MST, which is exactly the paper's "prim
// algorithm searching the minimum cost spanning tree" foresight step.
#pragma once

#include <span>
#include <vector>

#include "geometry/vec2.hpp"
#include "graph/union_find.hpp"

namespace cps::graph {

/// A relay plan for one deployment snapshot.
struct RelayPlan {
  /// Minimum relay count L(G, r).  Zero when already connected.
  std::size_t count = 0;
  /// Relay positions (size == count), evenly spaced strictly inside the
  /// MST bridge segments so that consecutive chain hops are <= r.
  std::vector<geo::Vec2> positions;
};

/// Computes the relay plan for `nodes` under communication radius r > 0
/// (std::invalid_argument otherwise, NaN included): groups them with
/// GeometricGraph::components and calls plan_group_relays.  An empty node
/// set yields an empty plan.
RelayPlan plan_relays(std::span<const geo::Vec2> nodes, double r);

/// The relay plan for nodes already grouped into their disk-graph
/// components (radius r > 0): Prim over the groups' closest pairs, then
/// relays_for_gap / relay_positions along each bridge.  Bridges, and so
/// positions, follow the groups' order; zero or one group is connected.
RelayPlan plan_group_relays(std::span<const std::vector<geo::Vec2>> groups,
                            double r);

/// The components of `nodes` read off `uf`, a union-find over (at least)
/// their indices whose unions are exactly the disk-graph edges: ordered by
/// smallest member index, members ascending — GeometricGraph::components'
/// order, so plan_group_relays sees what plan_relays would give it.
std::vector<std::vector<geo::Vec2>> component_groups(
    UnionFind& uf, std::span<const geo::Vec2> nodes);

/// Number of intermediate relays needed to bridge a gap of length d with
/// hop length <= r (0 when d <= r); r must be > 0 (NaN throws).
std::size_t relays_for_gap(double d, double r);

/// Evenly spaced interior points splitting segment [a, b] into
/// `relay_count` + 1 hops.
std::vector<geo::Vec2> relay_positions(geo::Vec2 a, geo::Vec2 b,
                                       std::size_t relay_count);

}  // namespace cps::graph

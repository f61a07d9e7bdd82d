// Disk (unit-ball) graphs over node positions.
//
// The paper's connectivity model (Definition 3.1): vertices are node
// positions, and an edge exists between any pair at distance <= Rc.  This
// class materialises that graph with adjacency lists and answers the
// connectivity questions FRA, CMA, and the tests ask.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geometry/vec2.hpp"

namespace cps::graph {

/// Immutable disk graph G(V, E) built from positions and a communication
/// radius.  Edges are undirected; self-loops are excluded.
class GeometricGraph {
 public:
  /// Builds the graph with a uniform-grid neighbour search (O(n) cells,
  /// each node checks its 3x3 cell neighbourhood), parallel over nodes.
  /// Radius must be > 0 (std::invalid_argument).
  GeometricGraph(std::span<const geo::Vec2> positions, double radius);

  std::size_t node_count() const noexcept { return positions_.size(); }
  std::size_t edge_count() const noexcept { return edge_count_; }
  double radius() const noexcept { return radius_; }

  geo::Vec2 position(std::size_t i) const { return positions_.at(i); }

  /// Single-hop neighbours of node i (sorted ascending).
  const std::vector<std::size_t>& neighbors(std::size_t i) const {
    return adjacency_.at(i);
  }

  std::size_t degree(std::size_t i) const { return adjacency_.at(i).size(); }

  bool has_edge(std::size_t a, std::size_t b) const;

  /// True when the graph has one connected component (vacuously true for
  /// <= 1 node).
  bool is_connected() const;

  /// Component label per node (labels are 0..count-1 in first-seen order).
  std::vector<std::size_t> component_labels() const;

  std::size_t component_count() const;

  /// Nodes grouped by component, ordered by label.
  std::vector<std::vector<std::size_t>> components() const;

 private:
  std::vector<geo::Vec2> positions_;
  std::vector<std::vector<std::size_t>> adjacency_;
  double radius_ = 0.0;
  std::size_t edge_count_ = 0;
};

}  // namespace cps::graph

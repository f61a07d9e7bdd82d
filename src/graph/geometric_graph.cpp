#include "graph/geometric_graph.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "parallel/spatial_hash.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::graph {

GeometricGraph::GeometricGraph(std::span<const geo::Vec2> positions,
                               double radius)
    : positions_(positions.begin(), positions.end()),
      adjacency_(positions.size()),
      radius_(radius) {
  if (!(radius > 0.0)) throw std::invalid_argument("GeometricGraph: radius");
  if (positions_.empty()) return;
  const double r2 = radius * radius;
  // Grid-accelerated build: each node scans only the 3x3 cell
  // neighbourhood of radius-sized cells instead of all pairs, and each
  // node's list is an independent write, so the per-node loop runs in
  // parallel.  Sorting ascending reproduces the all-pairs scan's list
  // order exactly (has_edge binary-searches; tests compare verbatim).
  const par::SpatialHash hash(positions_, radius);
  par::parallel_for(
      positions_.size(),
      [&](std::size_t i) {
        auto& adj = adjacency_[i];
        hash.for_each_candidate(positions_[i], radius,
                                [&](std::uint32_t j) {
                                  if (j != i &&
                                      geo::distance_sq(positions_[i],
                                                       positions_[j]) <= r2) {
                                    adj.push_back(j);
                                  }
                                });
        std::sort(adj.begin(), adj.end());
      },
      /*grain=*/128);
  std::size_t degree_sum = 0;
  for (const auto& adj : adjacency_) degree_sum += adj.size();
  edge_count_ = degree_sum / 2;
}

bool GeometricGraph::has_edge(std::size_t a, std::size_t b) const {
  const auto& adj = adjacency_.at(a);
  if (b >= positions_.size()) throw std::out_of_range("has_edge");
  return std::binary_search(adj.begin(), adj.end(), b);
}

std::vector<std::size_t> GeometricGraph::component_labels() const {
  constexpr auto kUnset = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> label(positions_.size(), kUnset);
  std::size_t next = 0;
  std::queue<std::size_t> frontier;
  for (std::size_t start = 0; start < positions_.size(); ++start) {
    if (label[start] != kUnset) continue;
    label[start] = next;
    frontier.push(start);
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop();
      for (const std::size_t v : adjacency_[u]) {
        if (label[v] == kUnset) {
          label[v] = next;
          frontier.push(v);
        }
      }
    }
    ++next;
  }
  return label;
}

std::size_t GeometricGraph::component_count() const {
  if (positions_.empty()) return 0;
  const auto labels = component_labels();
  return 1 + *std::max_element(labels.begin(), labels.end());
}

bool GeometricGraph::is_connected() const {
  return component_count() <= 1;
}

std::vector<std::vector<std::size_t>> GeometricGraph::components() const {
  const auto labels = component_labels();
  std::vector<std::vector<std::size_t>> groups(component_count());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    groups[labels[i]].push_back(i);
  }
  return groups;
}

}  // namespace cps::graph

#include "graph/connectivity.hpp"

#include <algorithm>
#include <limits>

namespace cps::graph {
namespace {

constexpr auto kUnvisited = std::numeric_limits<std::size_t>::max();

// Iterative Tarjan lowpoint DFS (explicit stack: deployments can chain
// hundreds of relays, which would overflow a recursive version).
struct Frame {
  std::size_t node;
  std::size_t parent;
  std::size_t next_neighbor_index;
};

}  // namespace

std::vector<std::size_t> articulation_points(const GeometricGraph& g) {
  const std::size_t n = g.node_count();
  std::vector<std::size_t> discovery(n, kUnvisited);
  std::vector<std::size_t> low(n, 0);
  std::vector<bool> is_cut(n, false);
  std::size_t clock = 0;

  for (std::size_t root = 0; root < n; ++root) {
    if (discovery[root] != kUnvisited) continue;
    std::size_t root_children = 0;
    std::vector<Frame> stack{{root, kUnvisited, 0}};
    discovery[root] = low[root] = clock++;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto& neighbors = g.neighbors(frame.node);
      if (frame.next_neighbor_index < neighbors.size()) {
        const std::size_t next = neighbors[frame.next_neighbor_index++];
        if (discovery[next] == kUnvisited) {
          if (frame.node == root) ++root_children;
          discovery[next] = low[next] = clock++;
          stack.push_back(Frame{next, frame.node, 0});
        } else if (next != frame.parent) {
          low[frame.node] = std::min(low[frame.node], discovery[next]);
        }
      } else {
        // Post-order: fold this node's lowpoint into its parent and apply
        // the articulation criterion.
        const Frame done = frame;
        stack.pop_back();
        if (!stack.empty()) {
          Frame& parent = stack.back();
          low[parent.node] = std::min(low[parent.node], low[done.node]);
          if (parent.node != root &&
              low[done.node] >= discovery[parent.node]) {
            is_cut[parent.node] = true;
          }
        }
      }
    }
    if (root_children >= 2) is_cut[root] = true;
  }

  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_cut[i]) out.push_back(i);
  }
  return out;
}

std::size_t single_point_of_failure_count(const GeometricGraph& g) {
  return articulation_points(g).size();
}

}  // namespace cps::graph

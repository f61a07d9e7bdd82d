#include "graph/mst.hpp"

#include <limits>
#include <stdexcept>

namespace cps::graph {

std::vector<GroupEdge> prim_group_mst(
    std::span<const std::vector<geo::Vec2>> groups) {
  const std::size_t n = groups.size();
  for (const auto& g : groups) {
    if (g.empty()) throw std::invalid_argument("prim_group_mst: empty group");
  }
  std::vector<GroupEdge> edges;
  if (n <= 1) return edges;
  edges.reserve(n - 1);

  // Closest-pair distance between every group pair, O(sum |gi| * |gj|).
  // Workloads here have tens of components of tens of nodes, so the dense
  // computation is well inside budget.
  const auto closest = [&](std::size_t a, std::size_t b) {
    GroupEdge e{a, b, groups[a].front(), groups[b].front(),
                std::numeric_limits<double>::infinity()};
    double best2 = std::numeric_limits<double>::infinity();
    for (const auto& pa : groups[a]) {
      for (const auto& pb : groups[b]) {
        const double d2 = geo::distance_sq(pa, pb);
        if (d2 < best2) {
          best2 = d2;
          e.point_a = pa;
          e.point_b = pb;
        }
      }
    }
    e.distance = std::sqrt(best2);
    return e;
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<bool> in_tree(n, false);
  std::vector<GroupEdge> best(n);
  std::vector<double> best_dist(n, kInf);

  in_tree[0] = true;
  for (std::size_t j = 1; j < n; ++j) {
    best[j] = closest(0, j);
    best_dist[j] = best[j].distance;
  }
  for (std::size_t added = 1; added < n; ++added) {
    std::size_t pick = n;
    double cost = kInf;
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_tree[j] && best_dist[j] < cost) {
        cost = best_dist[j];
        pick = j;
      }
    }
    in_tree[pick] = true;
    edges.push_back(best[pick]);
    for (std::size_t j = 0; j < n; ++j) {
      if (in_tree[j]) continue;
      GroupEdge candidate = closest(pick, j);
      if (candidate.distance < best_dist[j]) {
        best[j] = candidate;
        best_dist[j] = candidate.distance;
      }
    }
  }
  return edges;
}

}  // namespace cps::graph

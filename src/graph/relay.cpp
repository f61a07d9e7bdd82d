#include "graph/relay.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "graph/geometric_graph.hpp"
#include "graph/mst.hpp"
#include "obs/obs.hpp"

namespace cps::graph {

std::size_t relays_for_gap(double d, double r) {
  if (!(r > 0.0)) throw std::invalid_argument("relays_for_gap: r <= 0");
  if (d <= r) return 0;
  // ceil(d / r) - 1 hops of length <= r; the epsilon shields exact
  // multiples of r from float round-up (a gap of exactly 2r needs 1 relay).
  return static_cast<std::size_t>(std::ceil(d / r - 1e-12)) - 1;
}

std::vector<geo::Vec2> relay_positions(geo::Vec2 a, geo::Vec2 b,
                                       std::size_t relay_count) {
  std::vector<geo::Vec2> out;
  out.reserve(relay_count);
  const double hops = static_cast<double>(relay_count + 1);
  for (std::size_t i = 1; i <= relay_count; ++i) {
    out.push_back(geo::lerp(a, b, static_cast<double>(i) / hops));
  }
  return out;
}

RelayPlan plan_relays(std::span<const geo::Vec2> nodes, double r) {
  if (!(r > 0.0)) throw std::invalid_argument("plan_relays: r <= 0");
  const GeometricGraph g(nodes, r);
  std::vector<std::vector<geo::Vec2>> groups;
  for (const auto& comp : g.components()) {
    std::vector<geo::Vec2>& pts = groups.emplace_back();
    pts.reserve(comp.size());
    for (const std::size_t id : comp) pts.push_back(g.position(id));
  }
  return plan_group_relays(groups, r);
}

RelayPlan plan_group_relays(std::span<const std::vector<geo::Vec2>> groups,
                            double r) {
  if (!(r > 0.0)) throw std::invalid_argument("plan_group_relays: r <= 0");
  RelayPlan plan;
  if (groups.size() <= 1) return plan;

  // Callers that already know the disk graph is connected (FRA's
  // union-find) skip the grouping entirely; the counter below is
  // therefore the process-wide "Prim MST actually ran" regression signal.
  CPS_TIMER("graph.relay.plan_relays");
  CPS_COUNT("graph.relay.mst_recomputes", 1);
  for (const auto& bridge : prim_group_mst(groups)) {
    const std::size_t need = relays_for_gap(bridge.distance, r);
    const auto pts = relay_positions(bridge.point_a, bridge.point_b, need);
    plan.count += need;
    plan.positions.insert(plan.positions.end(), pts.begin(), pts.end());
  }
  return plan;
}

std::vector<std::vector<geo::Vec2>> component_groups(
    UnionFind& uf, std::span<const geo::Vec2> nodes) {
  if (nodes.size() > uf.size()) {
    throw std::invalid_argument("component_groups: more nodes than sets");
  }
  constexpr std::size_t kNoGroup = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> group_of_root(uf.size(), kNoGroup);
  std::vector<std::vector<geo::Vec2>> groups;
  // Ascending node order: a component's group opens at its smallest
  // member, and members join in index order.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::size_t& g = group_of_root[uf.find(i)];
    if (g == kNoGroup) {
      g = groups.size();
      groups.emplace_back();
    }
    groups[g].push_back(nodes[i]);
  }
  return groups;
}

}  // namespace cps::graph

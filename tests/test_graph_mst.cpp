// Tests for the group Prim MST (graph/mst.hpp).
#include "graph/mst.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/union_find.hpp"
#include "numerics/rng.hpp"

namespace cps::graph {
namespace {

using geo::Vec2;

// One group per point: the group MST is then the Euclidean MST of the
// points, with group indices as point indices.
std::vector<std::vector<Vec2>> singletons(const std::vector<Vec2>& pts) {
  std::vector<std::vector<Vec2>> groups;
  for (const Vec2& p : pts) groups.push_back({p});
  return groups;
}

double total_distance(const std::vector<GroupEdge>& edges) {
  double sum = 0.0;
  for (const auto& e : edges) sum += e.distance;
  return sum;
}

TEST(PrimMst, TwoPoints) {
  const auto edges = prim_group_mst(singletons({{0.0, 0.0}, {3.0, 4.0}}));
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_DOUBLE_EQ(edges[0].distance, 5.0);
}

TEST(PrimMst, CollinearChain) {
  // MST of collinear points is the chain of consecutive segments.
  const auto edges = prim_group_mst(
      singletons({{0.0, 0.0}, {10.0, 0.0}, {1.0, 0.0}, {5.0, 0.0}}));
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_NEAR(total_distance(edges), 10.0, 1e-12);
}

TEST(PrimMst, KnownSquarePlusCenter) {
  // Unit square + centre: MST connects each corner to the centre
  // (4 * sqrt(0.5) ~ 2.828 < any tree using square edges).
  const auto edges = prim_group_mst(singletons(
      {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}, {0.5, 0.5}}));
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_NEAR(total_distance(edges), 4.0 * std::sqrt(0.5), 1e-12);
}

TEST(PrimMst, SpansAllNodes) {
  num::Rng rng(17);
  std::vector<Vec2> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back({rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)});
  }
  const auto edges = prim_group_mst(singletons(pts));
  ASSERT_EQ(edges.size(), pts.size() - 1);
  UnionFind uf(pts.size());
  for (const auto& e : edges) EXPECT_TRUE(uf.unite(e.group_a, e.group_b));
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_EQ(uf.find(i), uf.find(0));
  }
}

TEST(PrimMst, CutPropertyOnRandomInstances) {
  // For every MST edge, removing it splits the tree in two; the edge must
  // be a minimum-weight crossing of that cut (the defining MST property).
  num::Rng rng(23);
  std::vector<Vec2> pts;
  for (int i = 0; i < 12; ++i) {
    pts.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
  }
  const auto edges = prim_group_mst(singletons(pts));
  ASSERT_EQ(edges.size(), pts.size() - 1);
  for (std::size_t skip = 0; skip < edges.size(); ++skip) {
    UnionFind uf(pts.size());
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (e != skip) uf.unite(edges[e].group_a, edges[e].group_b);
    }
    // Minimum crossing weight of the induced cut.
    double best = 1e300;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      for (std::size_t j = i + 1; j < pts.size(); ++j) {
        if (uf.find(i) == uf.find(j)) continue;
        best = std::min(best, geo::distance(pts[i], pts[j]));
      }
    }
    EXPECT_NEAR(edges[skip].distance, best, 1e-9) << "edge " << skip;
  }
}

TEST(GroupMst, TwoGroupsClosestPair) {
  const std::vector<std::vector<Vec2>> groups{
      {{0.0, 0.0}, {1.0, 0.0}}, {{5.0, 0.0}, {9.0, 0.0}}};
  const auto edges = prim_group_mst(groups);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_DOUBLE_EQ(edges[0].distance, 4.0);
  EXPECT_EQ(edges[0].point_a, Vec2(1.0, 0.0));
  EXPECT_EQ(edges[0].point_b, Vec2(5.0, 0.0));
}

TEST(GroupMst, SingleOrEmptyGroupList) {
  EXPECT_TRUE(prim_group_mst(std::vector<std::vector<Vec2>>{}).empty());
  const std::vector<std::vector<Vec2>> one{{{1.0, 1.0}}};
  EXPECT_TRUE(prim_group_mst(one).empty());
}

TEST(GroupMst, EmptyGroupThrows) {
  const std::vector<std::vector<Vec2>> bad{{{0.0, 0.0}}, {}};
  EXPECT_THROW(prim_group_mst(bad), std::invalid_argument);
}

TEST(GroupMst, ChainOfThreeClusters) {
  const std::vector<std::vector<Vec2>> groups{
      {{0.0, 0.0}}, {{10.0, 0.0}}, {{21.0, 0.0}}};
  const auto edges = prim_group_mst(groups);
  ASSERT_EQ(edges.size(), 2u);
  double total = 0.0;
  for (const auto& e : edges) total += e.distance;
  EXPECT_NEAR(total, 10.0 + 11.0, 1e-12);  // 0-1 and 1-2, never 0-2.
}

TEST(GroupMst, EdgeEndpointsBelongToTheirGroups) {
  num::Rng rng(31);
  std::vector<std::vector<Vec2>> groups(4);
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const Vec2 center{static_cast<double>(gi) * 30.0, 0.0};
    for (int i = 0; i < 5; ++i) {
      groups[gi].push_back(center + Vec2{rng.uniform(-3.0, 3.0),
                                         rng.uniform(-3.0, 3.0)});
    }
  }
  const auto edges = prim_group_mst(groups);
  ASSERT_EQ(edges.size(), 3u);
  for (const auto& e : edges) {
    const auto& ga = groups[e.group_a];
    const auto& gb = groups[e.group_b];
    EXPECT_NE(std::find(ga.begin(), ga.end(), e.point_a), ga.end());
    EXPECT_NE(std::find(gb.begin(), gb.end(), e.point_b), gb.end());
    EXPECT_NEAR(e.distance, geo::distance(e.point_a, e.point_b), 1e-12);
  }
}

}  // namespace
}  // namespace cps::graph

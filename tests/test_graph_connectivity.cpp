// Tests for articulation-point analysis (graph/connectivity.hpp).
#include "graph/connectivity.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "numerics/rng.hpp"

namespace cps::graph {
namespace {

using geo::Vec2;

GeometricGraph chain(int n, double pitch = 5.0, double radius = 6.0) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) pts.push_back({i * pitch, 0.0});
  return GeometricGraph(pts, radius);
}

TEST(Articulation, ChainInteriorNodesAreAllCuts) {
  const GeometricGraph g = chain(5);
  const auto cuts = articulation_points(g);
  EXPECT_EQ(cuts, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(single_point_of_failure_count(g), 3u);
}

TEST(Articulation, TriangleHasNone) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {5.0, 0.0}, {2.5, 4.0}};
  const GeometricGraph g(pts, 6.0);
  EXPECT_TRUE(articulation_points(g).empty());
}

TEST(Articulation, SharedNodeBetweenTwoTriangles) {
  // Bow-tie: triangles {0,1,2} and {2,3,4} share node 2, which is the
  // only articulation point.
  const std::vector<Vec2> pts{{0.0, 0.0}, {4.0, 0.0}, {2.0, 3.0},
                              {0.0, 6.0}, {4.0, 6.0}};
  const GeometricGraph g(pts, 4.5);
  // Sanity on the intended topology.
  ASSERT_TRUE(g.has_edge(0, 1));
  ASSERT_TRUE(g.has_edge(0, 2));
  ASSERT_TRUE(g.has_edge(1, 2));
  ASSERT_TRUE(g.has_edge(2, 3));
  ASSERT_TRUE(g.has_edge(2, 4));
  ASSERT_TRUE(g.has_edge(3, 4));
  ASSERT_FALSE(g.has_edge(0, 3));
  EXPECT_EQ(articulation_points(g), (std::vector<std::size_t>{2}));
}

TEST(Articulation, StarCenterIsTheOnlyCut) {
  std::vector<Vec2> pts{{0.0, 0.0}};
  pts.push_back({6.0, 0.0});
  pts.push_back({-6.0, 0.0});
  pts.push_back({0.0, 6.0});
  pts.push_back({0.0, -6.0});
  const GeometricGraph g(pts, 7.0);
  EXPECT_EQ(articulation_points(g), (std::vector<std::size_t>{0}));
}

TEST(Articulation, DisconnectedGraphHandledPerComponent) {
  // Two disjoint chains: interior nodes of each are cuts.
  std::vector<Vec2> pts;
  for (int i = 0; i < 3; ++i) pts.push_back({i * 5.0, 0.0});
  for (int i = 0; i < 3; ++i) pts.push_back({i * 5.0, 50.0});
  const GeometricGraph g(pts, 6.0);
  EXPECT_EQ(articulation_points(g), (std::vector<std::size_t>{1, 4}));
}

TEST(Articulation, TrivialGraphs) {
  const std::vector<Vec2> empty;
  EXPECT_TRUE(articulation_points(GeometricGraph(empty, 1.0)).empty());
  const std::vector<Vec2> pair{{0.0, 0.0}, {1.0, 0.0}};
  const GeometricGraph g2(pair, 2.0);
  EXPECT_TRUE(articulation_points(g2).empty());
}

// Property: brute-force check — removing a reported articulation point
// increases the component count; removing a non-cut never does.
TEST(Articulation, AgreesWithBruteForceRemoval) {
  num::Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Vec2> pts;
    for (int i = 0; i < 25; ++i) {
      pts.push_back({rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)});
    }
    const GeometricGraph g(pts, 14.0);
    const auto cuts = articulation_points(g);
    const std::size_t base = g.component_count();
    for (std::size_t victim = 0; victim < pts.size(); ++victim) {
      // Rebuild without the victim (ignore its own singleton effect by
      // comparing component counts of the survivors only).
      std::vector<Vec2> survivors;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (i != victim) survivors.push_back(pts[i]);
      }
      const std::size_t after =
          GeometricGraph(survivors, 14.0).component_count();
      // Removing an isolated node reduces counts; a cut raises them.
      const bool was_isolated = g.degree(victim) == 0;
      const bool reported_cut =
          std::find(cuts.begin(), cuts.end(), victim) != cuts.end();
      if (reported_cut) {
        ASSERT_GT(after, base - (was_isolated ? 1 : 0))
            << "trial " << trial << " victim " << victim;
      } else if (!was_isolated) {
        ASSERT_LE(after, base) << "trial " << trial << " victim " << victim;
      }
    }
  }
}

}  // namespace
}  // namespace cps::graph

// Tests for disk graphs (graph/geometric_graph.hpp).
#include "graph/geometric_graph.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "numerics/rng.hpp"

namespace cps::graph {
namespace {

using geo::Vec2;

TEST(GeometricGraph, EdgesAtExactRadius) {
  // The paper's rule is distance <= Rc: a pair exactly at Rc is connected.
  const std::vector<Vec2> pts{{0.0, 0.0}, {10.0, 0.0}, {25.0, 0.0}};
  const GeometricGraph g(pts, 10.0);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GeometricGraph, InvalidRadiusThrows) {
  const std::vector<Vec2> pts{{0.0, 0.0}};
  EXPECT_THROW(GeometricGraph(pts, 0.0), std::invalid_argument);
  EXPECT_THROW(GeometricGraph(pts, -1.0), std::invalid_argument);
  // With no nodes the radius check is the only thing that can reject NaN.
  EXPECT_THROW(GeometricGraph(std::vector<Vec2>{},
                              std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(GeometricGraph, NeighborsSortedAndSymmetric) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {5.0, 0.0}, {0.0, 5.0},
                              {50.0, 50.0}};
  const GeometricGraph g(pts, 8.0);
  EXPECT_EQ(g.neighbors(0), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(3), 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    for (const std::size_t j : g.neighbors(i)) {
      EXPECT_TRUE(g.has_edge(j, i));
    }
  }
}

TEST(GeometricGraph, EmptyAndSingletonGraphs) {
  const std::vector<Vec2> none;
  const GeometricGraph g0(none, 1.0);
  EXPECT_EQ(g0.component_count(), 0u);
  EXPECT_TRUE(g0.is_connected());  // Vacuously.

  const std::vector<Vec2> one{{3.0, 3.0}};
  const GeometricGraph g1(one, 1.0);
  EXPECT_EQ(g1.component_count(), 1u);
  EXPECT_TRUE(g1.is_connected());
}

TEST(GeometricGraph, ComponentsPartitionNodes) {
  // Two clusters of 2 plus an isolated node.
  const std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0},   // Component 0.
                              {50.0, 0.0}, {51.0, 0.0},  // Component 1.
                              {100.0, 100.0}};          // Component 2.
  const GeometricGraph g(pts, 2.0);
  EXPECT_EQ(g.component_count(), 3u);
  EXPECT_FALSE(g.is_connected());
  const auto comps = g.components();
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(comps[2], (std::vector<std::size_t>{4}));
  const auto labels = g.component_labels();
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[1], labels[2]);
}

TEST(GeometricGraph, ChainIsConnected) {
  std::vector<Vec2> pts;
  for (int i = 0; i < 20; ++i) pts.push_back({i * 9.9, 0.0});
  const GeometricGraph g(pts, 10.0);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.component_count(), 1u);
}

TEST(GeometricGraph, GridPitchEqualRadiusIsConnected) {
  // The CMA initial state: 10 x 10 grid, 10 m pitch, Rc = 10.
  std::vector<Vec2> pts;
  for (int r = 0; r < 10; ++r) {
    for (int c = 0; c < 10; ++c) {
      pts.push_back({5.0 + c * 10.0, 5.0 + r * 10.0});
    }
  }
  const GeometricGraph g(pts, 10.0);
  EXPECT_TRUE(g.is_connected());
  // Interior node: exactly 4 axis neighbours (diagonal is 14.1 > Rc).
  // Node (1,1) has index 11.
  EXPECT_EQ(g.degree(11), 4u);
}

// Nodes reachable from `source` over neighbors() (a depth-first walk).
std::vector<bool> reachable_from(const GeometricGraph& g, std::size_t source) {
  std::vector<bool> seen(g.node_count(), false);
  std::vector<std::size_t> frontier{source};
  seen[source] = true;
  while (!frontier.empty()) {
    const std::size_t u = frontier.back();
    frontier.pop_back();
    for (const std::size_t v : g.neighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        frontier.push_back(v);
      }
    }
  }
  return seen;
}

// Property: component labels agree with reachability from node 0.
class GeometricGraphRandomSweep : public ::testing::TestWithParam<double> {};

TEST_P(GeometricGraphRandomSweep, LabelsMatchReachability) {
  const double radius = GetParam();
  num::Rng rng(static_cast<std::uint64_t>(radius * 100));
  std::vector<Vec2> pts;
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  const GeometricGraph g(pts, radius);
  const auto labels = g.component_labels();
  const auto reached = reachable_from(g, 0);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(labels[i] == labels[0], reached[i]) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, GeometricGraphRandomSweep,
                         ::testing::Values(5.0, 10.0, 20.0, 40.0, 150.0));

}  // namespace
}  // namespace cps::graph

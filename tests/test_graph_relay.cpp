// Tests for relay planning (graph/relay.hpp) — FRA's L(G, r) and P(G, i).
#include "graph/relay.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/geometric_graph.hpp"
#include "graph/union_find.hpp"
#include "numerics/rng.hpp"

namespace cps::graph {
namespace {

using geo::Vec2;

TEST(RelaysForGap, Thresholds) {
  EXPECT_EQ(relays_for_gap(5.0, 10.0), 0u);
  EXPECT_EQ(relays_for_gap(10.0, 10.0), 0u);   // Exactly one hop.
  EXPECT_EQ(relays_for_gap(10.1, 10.0), 1u);
  EXPECT_EQ(relays_for_gap(20.0, 10.0), 1u);   // Exactly two hops.
  EXPECT_EQ(relays_for_gap(20.5, 10.0), 2u);
  EXPECT_EQ(relays_for_gap(95.0, 10.0), 9u);
}

TEST(RelaysForGap, InvalidRadiusThrows) {
  EXPECT_THROW(relays_for_gap(5.0, 0.0), std::invalid_argument);
  EXPECT_THROW(relays_for_gap(5.0, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(RelayPositions, EvenSpacingWithinHopLength) {
  const Vec2 a{0.0, 0.0};
  const Vec2 b{30.0, 0.0};
  const auto relays = relay_positions(a, b, 2);
  ASSERT_EQ(relays.size(), 2u);
  EXPECT_NEAR(relays[0].x, 10.0, 1e-12);
  EXPECT_NEAR(relays[1].x, 20.0, 1e-12);
  // Chain hops are all <= gap / (count + 1).
  EXPECT_NEAR(geo::distance(a, relays[0]), 10.0, 1e-12);
  EXPECT_NEAR(geo::distance(relays[1], b), 10.0, 1e-12);
}

TEST(RelayPositions, ZeroRelays) {
  EXPECT_TRUE(relay_positions({0.0, 0.0}, {1.0, 1.0}, 0).empty());
}

TEST(PlanRelays, AlreadyConnectedNeedsNothing) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {5.0, 0.0}, {10.0, 0.0}};
  const RelayPlan plan = plan_relays(pts, 6.0);
  EXPECT_EQ(plan.count, 0u);
  EXPECT_TRUE(plan.positions.empty());
}

TEST(PlanRelays, TrivialInputs) {
  EXPECT_EQ(plan_relays(std::vector<Vec2>{}, 5.0).count, 0u);
  EXPECT_EQ(plan_relays(std::vector<Vec2>{{1.0, 1.0}}, 5.0).count, 0u);
  EXPECT_THROW(plan_relays(std::vector<Vec2>{{0.0, 0.0}}, 0.0),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(plan_relays(std::vector<Vec2>{{0.0, 0.0}}, nan),
               std::invalid_argument);
  const std::vector<std::vector<Vec2>> two{{{0.0, 0.0}}, {{50.0, 0.0}}};
  EXPECT_THROW(plan_group_relays(two, nan), std::invalid_argument);
}

TEST(PlanRelays, TwoIslandsBridged) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0},
                              {35.0, 0.0}, {36.0, 0.0}};
  const RelayPlan plan = plan_relays(pts, 10.0);
  // Gap 34 m -> ceil(3.4) - 1 = 3 relays.
  EXPECT_EQ(plan.count, 3u);
  ASSERT_EQ(plan.positions.size(), 3u);
  // Plan + originals must form one component.
  std::vector<Vec2> all = pts;
  all.insert(all.end(), plan.positions.begin(), plan.positions.end());
  EXPECT_TRUE(GeometricGraph(all, 10.0).is_connected());
}

TEST(PlanRelays, ThreeIslandsUseMstNotAllPairs) {
  // Islands at 0, 30, 60 on a line: MST bridges 0-30 and 30-60 (2 + 2
  // relays), never the 60 m 0-to-60 bridge.
  const std::vector<Vec2> pts{{0.0, 0.0}, {30.0, 0.0}, {60.0, 0.0}};
  const RelayPlan plan = plan_relays(pts, 10.0);
  EXPECT_EQ(plan.count, 4u);
}

// Property: for random scatters, originals + planned relays are always one
// connected network, and the relay count is minimal along each MST bridge.
class PlanRelaysRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(PlanRelaysRandomSweep, PlannedNetworkIsConnected) {
  const int n = GetParam();
  num::Rng rng(static_cast<std::uint64_t>(n) * 13 + 1);
  const double rc = 10.0;
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  const RelayPlan plan = plan_relays(pts, rc);
  EXPECT_EQ(plan.positions.size(), plan.count);
  std::vector<Vec2> all = pts;
  all.insert(all.end(), plan.positions.begin(), plan.positions.end());
  EXPECT_TRUE(GeometricGraph(all, rc).is_connected())
      << "n=" << n << " relays=" << plan.count;
}

INSTANTIATE_TEST_SUITE_P(Sizes, PlanRelaysRandomSweep,
                         ::testing::Values(2, 3, 5, 10, 20, 50, 100));

// The union-find grouping FRA feeds plan_group_relays against the
// GeometricGraph grouping plan_relays builds, on seeded deployments with
// integer coordinates: every third node gets a partner at exactly rc
// ((10, 0), (6, 8), ... offsets, whose squared length is exactly 100), so
// the closed edge predicate is exercised at its boundary.  Unions run the
// way FRA registers nodes (the newest node against every older one), so
// roots are not smallest members and only the grouping rule orders the
// components.
TEST(PlanGroupRelays, UnionFindGroupsGiveTheGeometricGraphPlan) {
  const double rc = 10.0;
  const Vec2 exact[] = {{10.0, 0.0}, {0.0, 10.0}, {6.0, 8.0},
                        {-8.0, 6.0}, {-10.0, 0.0}, {6.0, -8.0}};
  std::size_t multi_component = 0;
  std::size_t exact_edges = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    num::Rng rng(seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 60));
    std::vector<Vec2> pts;
    while (pts.size() < n) {
      const Vec2 p{static_cast<double>(rng.uniform_int(10, 90)),
                   static_cast<double>(rng.uniform_int(10, 90))};
      pts.push_back(p);
      if (pts.size() % 3 == 0 && pts.size() < n) {
        pts.push_back(p + exact[rng.uniform_int(0, 5)]);
      }
    }
    UnionFind uf(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        const double d2 = geo::distance_sq(pts[i], pts[j]);
        if (d2 == rc * rc) ++exact_edges;
        if (d2 <= rc * rc) uf.unite(i, j);
      }
    }

    const auto groups = component_groups(uf, pts);
    const GeometricGraph g(pts, rc);
    const auto comps = g.components();
    ASSERT_EQ(groups.size(), comps.size());
    for (std::size_t c = 0; c < comps.size(); ++c) {
      ASSERT_EQ(groups[c].size(), comps[c].size());
      for (std::size_t m = 0; m < comps[c].size(); ++m) {
        EXPECT_EQ(groups[c][m].x, pts[comps[c][m]].x);
        EXPECT_EQ(groups[c][m].y, pts[comps[c][m]].y);
      }
    }
    if (comps.size() > 1) ++multi_component;

    const RelayPlan grouped = plan_group_relays(groups, rc);
    const RelayPlan reference = plan_relays(pts, rc);
    ASSERT_EQ(grouped.count, reference.count);
    ASSERT_EQ(grouped.positions.size(), reference.positions.size());
    for (std::size_t r = 0; r < reference.positions.size(); ++r) {
      EXPECT_EQ(grouped.positions[r].x, reference.positions[r].x);
      EXPECT_EQ(grouped.positions[r].y, reference.positions[r].y);
    }
  }
  // The sweep covers what it claims: plans with several components, and
  // node pairs at exactly rc.
  EXPECT_GT(multi_component, 20u);
  EXPECT_GT(exact_edges, 20u);
}

TEST(PlanGroupRelays, ComponentGroupsRejectsTooSmallUnionFind) {
  UnionFind uf(1);
  const std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}};
  EXPECT_THROW(component_groups(uf, pts), std::invalid_argument);
}

}  // namespace
}  // namespace cps::graph

// Tests for the incremental Delaunay triangulation (geometry/delaunay.hpp).
//
// The invariants checked here are the load-bearing ones for the paper's
// pipeline: valid topology after arbitrary insertion sequences, the empty-
// circumcircle property, exact region coverage (sum of areas == |A|), and
// exact piecewise-linear interpolation on planar fields.
#include "geometry/delaunay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "numerics/rng.hpp"

namespace cps::geo {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

TEST(Delaunay, SeedState) {
  const Delaunay dt(kRegion);
  EXPECT_EQ(dt.vertex_count(), 4u);
  EXPECT_EQ(dt.triangle_count(), 2u);
  EXPECT_TRUE(dt.validate_topology());
  EXPECT_TRUE(dt.is_delaunay());
  EXPECT_NEAR(dt.total_area(), kRegion.area(), 1e-9);
}

TEST(Delaunay, EmptyRegionThrows) {
  EXPECT_THROW(Delaunay(num::Rect{0.0, 0.0, 0.0, 10.0}),
               std::invalid_argument);
  EXPECT_THROW(Delaunay(num::Rect{5.0, 5.0, 1.0, 10.0}),
               std::invalid_argument);
}

TEST(Delaunay, SingleInteriorInsert) {
  Delaunay dt(kRegion);
  const InsertResult r = dt.insert({50.0, 50.0}, 7.0);
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(r.vertex, 4);
  // Point on the seed diagonal: both seed triangles die, four appear.
  EXPECT_EQ(dt.vertex_count(), 5u);
  EXPECT_TRUE(dt.validate_topology());
  EXPECT_TRUE(dt.is_delaunay());
  EXPECT_NEAR(dt.total_area(), kRegion.area(), 1e-9);
  EXPECT_DOUBLE_EQ(dt.vertex(4).z, 7.0);
}

TEST(Delaunay, OffDiagonalInsertSplitsOneTriangle) {
  Delaunay dt(kRegion);
  const InsertResult r = dt.insert({80.0, 20.0}, 1.0);
  EXPECT_TRUE(r.inserted);
  EXPECT_TRUE(dt.validate_topology());
  EXPECT_NEAR(dt.total_area(), kRegion.area(), 1e-9);
}

TEST(Delaunay, InsertOutsideThrows) {
  Delaunay dt(kRegion);
  EXPECT_THROW(dt.insert({150.0, 50.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(dt.insert({50.0, -1.0}, 0.0), std::invalid_argument);
}

TEST(Delaunay, DuplicateInsertUpdatesZ) {
  Delaunay dt(kRegion);
  dt.insert({30.0, 40.0}, 1.0);
  const std::size_t tris = dt.triangle_count();
  const InsertResult r = dt.insert({30.0, 40.0}, 9.0);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(r.vertex, 4);
  EXPECT_EQ(dt.triangle_count(), tris);
  EXPECT_DOUBLE_EQ(dt.vertex(4).z, 9.0);
}

TEST(Delaunay, DuplicateOfCornerUpdatesCorner) {
  Delaunay dt(kRegion);
  const InsertResult r = dt.insert({0.0, 0.0}, 3.5);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(r.vertex, 0);
  EXPECT_DOUBLE_EQ(dt.vertex(0).z, 3.5);
}

TEST(Delaunay, InsertOnRegionEdge) {
  Delaunay dt(kRegion);
  const InsertResult r = dt.insert({50.0, 0.0}, 2.0);
  EXPECT_TRUE(r.inserted);
  EXPECT_TRUE(dt.validate_topology());
  EXPECT_TRUE(dt.is_delaunay());
  EXPECT_NEAR(dt.total_area(), kRegion.area(), 1e-9);
}

TEST(Delaunay, InsertJustPastRegionEdgeKeepsEveryTriangleCcw) {
  // A lattice row x0 + j * (h / (n - 1)) can land a few ulps past the
  // region edge (11 * (100 / 11) = 100.00000000000001): inside the bounds
  // tolerance, but strictly beyond the border edge.  That edge must leave
  // the cavity boundary as an on-edge point's does; spawning a triangle
  // on it would make a clockwise sliver outside the region.
  const double top = 11.0 * (100.0 / 11.0);
  ASSERT_GT(top, kRegion.y1);
  Delaunay dt(kRegion);
  for (int i = 1; i < 11; ++i) {
    const InsertResult r = dt.insert({i * (100.0 / 11.0), top}, 1.0);
    EXPECT_TRUE(r.inserted);
    ASSERT_TRUE(dt.validate_topology()) << "insert " << i;
  }
  EXPECT_NEAR(dt.total_area(), kRegion.area(), 1e-9);
  for (int j = 0; j <= 11; ++j) {
    for (int i = 0; i <= 11; ++i) {
      const Vec2 p{i * (100.0 / 11.0), j * (100.0 / 11.0)};
      EXPECT_TRUE(dt.triangle_geometry(dt.locate(p)).contains(p));
    }
  }
}

TEST(Delaunay, InsertResultReportsCavity) {
  Delaunay dt(kRegion);
  const InsertResult r = dt.insert({25.0, 10.0}, 0.0);
  ASSERT_TRUE(r.inserted);
  EXPECT_FALSE(r.removed_triangles.empty());
  EXPECT_FALSE(r.created_triangles.empty());
  // Removed triangles are dead; created ones alive.
  for (const int t : r.removed_triangles) EXPECT_FALSE(dt.triangle_alive(t));
  for (const int t : r.created_triangles) EXPECT_TRUE(dt.triangle_alive(t));
  // Euler bookkeeping for an interior cavity: created = removed + 2.
  EXPECT_EQ(r.created_triangles.size(), r.removed_triangles.size() + 2);
}

TEST(Delaunay, LocateFindsContainingTriangle) {
  Delaunay dt(kRegion);
  dt.insert({20.0, 30.0}, 0.0);
  dt.insert({70.0, 60.0}, 0.0);
  dt.insert({40.0, 80.0}, 0.0);
  for (const Vec2 p : {Vec2{10.0, 10.0}, Vec2{90.0, 90.0}, Vec2{50.0, 50.0},
                       Vec2{0.0, 0.0}, Vec2{100.0, 100.0}}) {
    const int tid = dt.locate(p);
    EXPECT_TRUE(dt.triangle_alive(tid));
    EXPECT_TRUE(dt.triangle_geometry(tid).contains(p, 1e-9));
  }
}

TEST(Delaunay, LocateOutsideThrows) {
  const Delaunay dt(kRegion);
  EXPECT_THROW(dt.locate({-5.0, 50.0}), std::invalid_argument);
}

TEST(Delaunay, SetVertexZValidation) {
  Delaunay dt(kRegion);
  dt.set_vertex_z(0, 4.0);
  EXPECT_DOUBLE_EQ(dt.vertex(0).z, 4.0);
  EXPECT_THROW(dt.set_vertex_z(99, 0.0), std::out_of_range);
}

TEST(Delaunay, InterpolationExactOnPlane) {
  // Pin the corners to a plane, insert points sampled from the same plane:
  // DT(x, y) must reproduce the plane everywhere.
  const auto plane = [](Vec2 p) { return 1.0 + 0.3 * p.x - 0.7 * p.y; };
  Delaunay dt(kRegion);
  for (int c = 0; c < Delaunay::kCorners; ++c) {
    dt.set_vertex_z(c, plane(dt.vertex(c).pos));
  }
  num::Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const Vec2 p{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    dt.insert(p, plane(p));
  }
  for (int i = 0; i < 200; ++i) {
    const Vec2 q{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    EXPECT_NEAR(dt.interpolate(q), plane(q), 1e-9);
  }
}

TEST(Delaunay, InterpolateReproducesVertexValues) {
  Delaunay dt(kRegion);
  num::Rng rng(11);
  std::vector<Vec2> pts;
  std::vector<double> zs;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.uniform(1.0, 99.0), rng.uniform(1.0, 99.0)});
    zs.push_back(rng.uniform(-5.0, 5.0));
    dt.insert(pts.back(), zs.back());
  }
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(dt.interpolate(pts[i]), zs[i], 1e-9) << "vertex " << i;
  }
}

TEST(Delaunay, GridInsertionHandlesCocircularPoints) {
  // A regular lattice is the worst case for incircle ties; topology and
  // coverage must survive, and the result must still be Delaunay up to
  // cocircularity.
  Delaunay dt(kRegion);
  for (int i = 0; i <= 10; ++i) {
    for (int j = 0; j <= 10; ++j) {
      dt.insert({i * 10.0, j * 10.0}, static_cast<double>(i + j));
    }
  }
  EXPECT_TRUE(dt.validate_topology());
  EXPECT_TRUE(dt.is_delaunay());
  EXPECT_NEAR(dt.total_area(), kRegion.area(), 1e-6);
  // 11x11 lattice; the 4 corners merge with scaffolding vertices.
  EXPECT_EQ(dt.vertex_count(), 4u + 121u - 4u + 4u - 4u);
}

TEST(Delaunay, AliveTrianglesConsistentWithCount) {
  Delaunay dt(kRegion);
  num::Rng rng(13);
  for (int i = 0; i < 25; ++i) {
    dt.insert({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)}, 0.0);
  }
  EXPECT_EQ(dt.alive_triangles().size(), dt.triangle_count());
}

// Property sweep: random insertion sequences of various sizes keep every
// structural invariant.
class DelaunayRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(DelaunayRandomSweep, InvariantsHoldAfterRandomInsertions) {
  const int n = GetParam();
  Delaunay dt(kRegion);
  num::Rng rng(static_cast<std::uint64_t>(n) * 7919 + 3);
  for (int i = 0; i < n; ++i) {
    const Vec2 p{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    dt.insert(p, rng.uniform(-1.0, 1.0));
  }
  EXPECT_TRUE(dt.validate_topology());
  EXPECT_TRUE(dt.is_delaunay());
  EXPECT_NEAR(dt.total_area(), kRegion.area(), 1e-6);
  // Euler: for a triangulated convex region with V vertices (all on the
  // boundary or inside), T = 2 * V_interior + V_boundary - 2.  We check the
  // weaker but exact statement T <= 2V and V == 4 + inserted (all random
  // doubles distinct with probability ~1).
  EXPECT_EQ(dt.vertex_count(), 4u + static_cast<std::size_t>(n));
  EXPECT_LE(dt.triangle_count(), 2 * dt.vertex_count());
}

INSTANTIATE_TEST_SUITE_P(Sizes, DelaunayRandomSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 50, 200, 500));

// Property sweep: clustered insertions (many near-duplicate points) are a
// stress case for cavity construction.
class DelaunayClusterSweep : public ::testing::TestWithParam<double> {};

TEST_P(DelaunayClusterSweep, TightClustersStayValid) {
  const double spread = GetParam();
  Delaunay dt(kRegion);
  num::Rng rng(777);
  for (int i = 0; i < 100; ++i) {
    const Vec2 p{50.0 + rng.normal(0.0, spread),
                 50.0 + rng.normal(0.0, spread)};
    if (!kRegion.contains(p.x, p.y)) continue;
    dt.insert(p, 0.0);
  }
  EXPECT_TRUE(dt.validate_topology());
  EXPECT_TRUE(dt.is_delaunay());
  EXPECT_NEAR(dt.total_area(), kRegion.area(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Spreads, DelaunayClusterSweep,
                         ::testing::Values(0.01, 0.1, 1.0, 10.0));

// --- Staleness regressions (ISSUE 8 satellites) ---

TEST(DelaunayStaleness, LocateHintSurvivesSlotRecycling) {
  // Regression: the shared remembering-walk hint used to keep pointing at a
  // triangle slot after free_triangle recycled it.  Drive the free list hard
  // enough that the hinted slot is freed and reallocated in a *different*
  // neighborhood, then locate() a point far from the recycled slot: with a
  // stale hint the walk starts from an unrelated triangle and (on adversarial
  // geometry) can fall back to the exhaustive scan or, worse, walk from a
  // dead record.  Post-fix the hint is reset whenever its slot is freed, so
  // it always satisfies the alive-or--1 invariant.
  Delaunay dt(kRegion);
  num::Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    dt.insert({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)},
              rng.uniform(-1.0, 1.0));
    const int hint = dt.debug_locate_hint();
    ASSERT_TRUE(hint == -1 || dt.triangle_alive(hint))
        << "stale locate hint after insert " << i;
    // Exercise the hinted walk from an arbitrary far corner each round.
    const int tid = dt.locate({0.5, 99.5});
    EXPECT_TRUE(dt.triangle_alive(tid));
    EXPECT_TRUE(dt.triangle_geometry(tid).contains({0.5, 99.5}, 1e-9));
  }
  // Removal frees the whole star; if the hint pointed into it, it must have
  // been reset rather than left dangling at a soon-recycled slot.
  for (int v = static_cast<int>(dt.vertex_count()) - 1; v >= 200; --v) {
    dt.remove(v);
    const int hint = dt.debug_locate_hint();
    ASSERT_TRUE(hint == -1 || dt.triangle_alive(hint))
        << "stale locate hint after removing vertex " << v;
    const int tid = dt.locate({99.5, 0.5});
    EXPECT_TRUE(dt.triangle_geometry(tid).contains({99.5, 0.5}, 1e-9));
  }
  EXPECT_TRUE(dt.validate_topology());
}

TEST(DelaunayStaleness, DuplicateHitReportsZChange) {
  // Regression: a duplicate-tolerance hit used to return inserted=false with
  // empty cavity lists even though it rewrote the vertex's z — δ-caching
  // callers saw "nothing changed" while the surface moved over the star.
  Delaunay dt(kRegion);
  dt.insert({30.0, 40.0}, 1.0);
  dt.insert({60.0, 70.0}, 2.0);

  const InsertResult same = dt.insert({30.0, 40.0}, 1.0);
  EXPECT_FALSE(same.inserted);
  EXPECT_FALSE(same.z_changed) << "identical z must not report a change";
  EXPECT_TRUE(same.star_triangles.empty());

  const InsertResult hit = dt.insert({30.0, 40.0}, 9.0);
  EXPECT_FALSE(hit.inserted);
  EXPECT_TRUE(hit.z_changed);
  EXPECT_EQ(hit.vertex, 4);
  EXPECT_DOUBLE_EQ(dt.vertex(4).z, 9.0);
  // The report must cover exactly the updated vertex's star.
  ASSERT_FALSE(hit.star_triangles.empty());
  EXPECT_EQ(hit.star_triangles, dt.vertex_star(4));
  for (const int tid : hit.star_triangles) {
    ASSERT_TRUE(dt.triangle_alive(tid));
    const auto& t = dt.triangle(tid);
    EXPECT_TRUE(t.v[0] == 4 || t.v[1] == 4 || t.v[2] == 4);
  }
}

// --- Removal / relocation ---

TEST(DelaunayRemove, CornerAndDeadIdsRejected) {
  Delaunay dt(kRegion);
  const int v = dt.insert({50.0, 50.0}, 1.0).vertex;
  EXPECT_THROW(dt.remove(0), std::invalid_argument);
  EXPECT_THROW(dt.remove(3), std::invalid_argument);
  dt.remove(v);
  EXPECT_FALSE(dt.vertex_alive(v));
  EXPECT_THROW(dt.remove(v), std::invalid_argument);
  EXPECT_THROW(dt.vertex_star(v), std::invalid_argument);
}

TEST(DelaunayRemove, InteriorRemovalRestoresInvariants) {
  Delaunay dt(kRegion);
  num::Rng rng(21);
  for (int i = 0; i < 30; ++i) {
    dt.insert({rng.uniform(1.0, 99.0), rng.uniform(1.0, 99.0)},
              rng.uniform(-2.0, 2.0));
  }
  const std::size_t before = dt.triangle_count();
  const RemoveResult r = dt.remove(10);
  // Removed and created ids never overlap (alloc-before-free contract).
  for (const int a : r.removed_triangles) {
    EXPECT_FALSE(dt.triangle_alive(a));
    for (const int b : r.created_triangles) EXPECT_NE(a, b);
  }
  // An interior star of m triangles re-triangulates into m - 2 ears.
  EXPECT_EQ(r.created_triangles.size(), r.removed_triangles.size() - 2);
  EXPECT_EQ(dt.triangle_count(), before - 2);
  EXPECT_TRUE(dt.validate_topology());
  EXPECT_TRUE(dt.is_delaunay());
  EXPECT_NEAR(dt.total_area(), kRegion.area(), 1e-6);
}

TEST(DelaunayRemove, BorderVertexRemoval) {
  Delaunay dt(kRegion);
  dt.insert({50.0, 0.0}, 1.0);   // on the bottom border
  dt.insert({30.0, 40.0}, 2.0);
  dt.insert({70.0, 30.0}, 3.0);
  const RemoveResult r = dt.remove(4);
  EXPECT_FALSE(dt.vertex_alive(4));
  EXPECT_FALSE(r.created_triangles.empty());
  EXPECT_TRUE(dt.validate_topology());
  EXPECT_TRUE(dt.is_delaunay());
  EXPECT_NEAR(dt.total_area(), kRegion.area(), 1e-9);
}

TEST(DelaunayRemove, InsertRemoveChurnKeepsInvariants) {
  // Interleave inserts and removals so triangle slots and the free list are
  // churned; cocircular grid points keep the predicates honest.
  Delaunay dt(kRegion);
  num::Rng rng(31);
  std::vector<int> alive_ids;
  for (int round = 0; round < 200; ++round) {
    if (!alive_ids.empty() && rng.uniform(0.0, 1.0) < 0.4) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(alive_ids.size()) - 1));
      dt.remove(alive_ids[pick]);
      alive_ids.erase(alive_ids.begin() +
                      static_cast<std::ptrdiff_t>(pick));
    } else {
      const bool grid = rng.uniform(0.0, 1.0) < 0.3;
      const Vec2 p =
          grid ? Vec2{rng.uniform_int(0, 10) * 10.0,
                      rng.uniform_int(0, 10) * 10.0}
               : Vec2{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
      const InsertResult ins = dt.insert(p, rng.uniform(-1.0, 1.0));
      if (ins.inserted) alive_ids.push_back(ins.vertex);
    }
    ASSERT_TRUE(dt.validate_topology()) << "round " << round;
    ASSERT_NEAR(dt.total_area(), kRegion.area(), 1e-6) << "round " << round;
  }
  EXPECT_TRUE(dt.is_delaunay());
}

TEST(DelaunayRemove, VertexStarMatchesBruteForce) {
  Delaunay dt(kRegion);
  num::Rng rng(41);
  for (int i = 0; i < 40; ++i) {
    dt.insert({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)}, 0.0);
  }
  for (int v = 0; v < static_cast<int>(dt.vertex_count()); ++v) {
    std::vector<int> expect;
    for (const int tid : dt.alive_triangles()) {
      const auto& t = dt.triangle(tid);
      if (t.v[0] == v || t.v[1] == v || t.v[2] == v) expect.push_back(tid);
    }
    std::vector<int> got = dt.vertex_star(v);
    EXPECT_EQ(got.size(), expect.size()) << "vertex " << v;
    std::sort(got.begin(), got.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(got, expect) << "vertex " << v;
  }
}

TEST(DelaunayMove, MoveRelocatesAndReportsCoverage) {
  Delaunay dt(kRegion);
  num::Rng rng(51);
  for (int i = 0; i < 20; ++i) {
    dt.insert({rng.uniform(1.0, 99.0), rng.uniform(1.0, 99.0)},
              rng.uniform(-1.0, 1.0));
  }
  const MoveResult m = dt.move_vertex(7, {12.5, 87.5}, 3.25);
  EXPECT_TRUE(m.inserted);
  EXPECT_FALSE(dt.vertex_alive(7));
  EXPECT_TRUE(dt.vertex_alive(m.vertex));
  EXPECT_DOUBLE_EQ(dt.vertex(m.vertex).z, 3.25);
  EXPECT_NEAR(dt.interpolate({12.5, 87.5}), 3.25, 1e-12);
  for (const int tid : m.changed_triangles) {
    EXPECT_TRUE(dt.triangle_alive(tid)) << "changed tri " << tid;
  }
  // The new vertex's whole star must be inside the change report.
  std::vector<int> changed = m.changed_triangles;
  std::sort(changed.begin(), changed.end());
  for (const int tid : dt.vertex_star(m.vertex)) {
    EXPECT_TRUE(std::binary_search(changed.begin(), changed.end(), tid));
  }
  EXPECT_TRUE(dt.validate_topology());
  EXPECT_TRUE(dt.is_delaunay());
  EXPECT_NEAR(dt.total_area(), kRegion.area(), 1e-6);
}

TEST(DelaunayMove, MoveOntoExistingVertexDegeneratesToZUpdate) {
  Delaunay dt(kRegion);
  const int a = dt.insert({25.0, 25.0}, 1.0).vertex;
  const int b = dt.insert({75.0, 75.0}, 2.0).vertex;
  const MoveResult m = dt.move_vertex(a, {75.0, 75.0}, 5.0);
  EXPECT_FALSE(m.inserted);
  EXPECT_TRUE(m.z_changed);
  EXPECT_EQ(m.vertex, b);
  EXPECT_FALSE(dt.vertex_alive(a));
  EXPECT_DOUBLE_EQ(dt.vertex(b).z, 5.0);
  EXPECT_FALSE(m.changed_triangles.empty());
  EXPECT_TRUE(dt.validate_topology());
}

}  // namespace
}  // namespace cps::geo

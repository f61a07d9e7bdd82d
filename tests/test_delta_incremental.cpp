// Equivalence suite for the cavity-local incremental δ engine
// (core/delta_incremental.hpp) and the CMA per-slot tracker
// (core/cma_delta.hpp):
//
//  * randomized fuzz — interleaved inserts, duplicate-tolerance hits
//    (z-changing and no-op), moves, and removals, with a cocircular
//    grid-aligned point mix, across the field zoo and 1–4 worker
//    threads; after EVERY event the tracker's value must be
//    bit-identical to a fresh raster sweep AND the per-point walk
//    reference (tests/oracles.hpp) of the same triangulation (the
//    DESIGN.md §13 oracle protocol), and the triangulation must still be
//    a valid Delaunay triangulation;
//  * a tracker that outlives a mid-stream thread-count change;
//  * a tracker built from scratch on a reconstruction, across both
//    corner policies, and on edges through every chunk head's first
//    lattice point (the rebuild restarts its walk there, as the sweep
//    does);
//  * CmaDeltaTracker: per-slot δ bit-identical to the end-to-end
//    current_delta pipeline and to the walk reference of its own surface,
//    whose vertices must be exactly the living nodes sensing the field,
//    through deaths, a revival, a Gilbert–Elliott link and a
//    position-aliased node pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cma.hpp"
#include "core/cma_delta.hpp"
#include "core/delta.hpp"
#include "core/delta_incremental.hpp"
#include "core/fra.hpp"
#include "core/reconstruction.hpp"
#include "field/analytic_fields.hpp"
#include "field/time_varying.hpp"
#include "net/fault.hpp"
#include "net/link_model.hpp"
#include "numerics/rng.hpp"
#include "oracles.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::core {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

field::AnalyticField reference_surface() {
  return field::AnalyticField([](double x, double y) {
    return 10.0 + 0.05 * x * y / 100.0 + 3.0 * (x > 40 && x < 60) +
           2.0 * (y > 20 && y < 50);
  });
}

/// Restores the global worker count on scope exit so a failing test can't
/// poison later ones.
struct ThreadGuard {
  ~ThreadGuard() { par::set_thread_count(1); }
};

// --- Randomized event fuzz against both fresh oracles ---------------------

/// Drives one triangulation and one IncrementalDelta through `events`
/// random events, comparing against a fresh raster sweep and the walk
/// reference after every single one.  With `lattice_aligned`, every
/// inserted or moved-to position has integer coordinates or lies on a
/// lattice row or column of an odd-integer lattice (resolution 50), and
/// takes its z from `f` (nudged on duplicate hits), so on a planar `f`
/// the surface matches the field up to rounding and every point's low
/// bits show in δ's sum.
void fuzz_events(const field::Field& f, std::uint64_t seed,
                 std::size_t events, std::size_t resolution,
                 bool lattice_aligned = false) {
  DeltaMetric raster(kRegion, resolution);

  geo::Delaunay dt(kRegion);
  for (int corner = 0; corner < geo::Delaunay::kCorners; ++corner) {
    dt.set_vertex_z(corner, f.value(dt.vertex(corner).pos));
  }
  IncrementalDelta inc(raster, f, dt);

  num::Rng rng(seed);
  // Grid-aligned points produce cocircular quadruples (and exact region
  // corners / borders, so duplicate hits land on the scaffolding too).
  const auto random_point = [&]() -> geo::Vec2 {
    if (lattice_aligned) {
      const auto integer = [&] {
        return static_cast<double>(rng.uniform_int(0, 100));
      };
      const auto lattice_line = [&] {
        return static_cast<double>(2 * rng.uniform_int(0, 49) + 1);
      };
      const double u = rng.uniform();
      if (u < 0.5) return {integer(), integer()};
      if (u < 0.75) return {rng.uniform(0.0, 100.0), lattice_line()};
      return {lattice_line(), rng.uniform(0.0, 100.0)};
    }
    if (rng.uniform() < 0.35) {
      return {12.5 * static_cast<double>(rng.uniform_int(0, 8)),
              12.5 * static_cast<double>(rng.uniform_int(0, 8))};
    }
    return {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
  };
  // A new vertex position and its z.  Lattice-aligned z is f(p), so the
  // point comes first there; otherwise z is drawn before the point, the
  // order the unaligned streams have always used.
  struct Draw {
    geo::Vec2 pos;
    double z;
  };
  const auto random_vertex = [&]() -> Draw {
    if (lattice_aligned) {
      const geo::Vec2 p = random_point();
      return {p, f.value(p)};
    }
    const double z = rng.uniform(-10.0, 10.0);
    return {random_point(), z};
  };

  std::vector<int> user;  // Alive non-corner vertices.
  const auto check = [&](std::size_t step, const char* what) {
    SCOPED_TRACE("event " + std::to_string(step) + " (" + what + ")");
    ASSERT_TRUE(dt.validate_topology());
    ASSERT_TRUE(dt.is_delaunay());
    const double fresh = raster.delta(f, dt);
    ASSERT_EQ(inc.value(), fresh);        // Bitwise, not approximately.
    ASSERT_EQ(fresh, oracle::walk_delta(raster, f, dt));  // And the walk.
  };

  for (std::size_t step = 0; step < events; ++step) {
    const double r = rng.uniform();
    const char* what = "";
    if (r < 0.45 || user.empty()) {
      what = "insert";
      const Draw d = random_vertex();
      const geo::InsertResult ins = dt.insert(d.pos, d.z);
      if (ins.inserted) user.push_back(ins.vertex);
      inc.apply(dt, ins);
    } else if (r < 0.60) {
      // Duplicate-tolerance hit on an existing vertex: half the time with
      // the same z (a true no-op), half with a new one (the z_changed
      // staleness event this PR's bugfix makes visible).
      const int v = user[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(user.size()) - 1))];
      const double z = rng.uniform() < 0.5 ? dt.vertex(v).z
                       : lattice_aligned ? dt.vertex(v).z + 1e-9
                                         : rng.uniform(-10.0, 10.0);
      what = "duplicate-hit";
      inc.apply(dt, dt.insert(dt.vertex(v).pos, z));
    } else if (r < 0.80) {
      what = "move";
      const std::size_t slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(user.size()) - 1));
      const Draw d = random_vertex();
      const geo::MoveResult moved = dt.move_vertex(user[slot], d.pos, d.z);
      user.erase(user.begin() + static_cast<std::ptrdiff_t>(slot));
      if (moved.inserted) user.push_back(moved.vertex);
      inc.apply(dt, moved);
    } else {
      what = "remove";
      const std::size_t slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(user.size()) - 1));
      const geo::RemoveResult removal = dt.remove(user[slot]);
      user.erase(user.begin() + static_cast<std::ptrdiff_t>(slot));
      inc.apply(dt, removal);
    }
    check(step, what);
  }

  EXPECT_EQ(inc.stats().events, events);
  // The whole point: strictly cheaper than `events` full sweeps (the
  // bench_perf gate demands >= 10x at scale; here the triangulation is
  // tiny, so the cavities are big and the bar is loose).
  EXPECT_LT(inc.stats().points_reevaluated,
            events * inc.stats().full_sweep_points);
}

TEST(IncrementalDeltaFuzz, MatchesBothOraclesAcrossThreads) {
  ThreadGuard guard;
  const auto f = reference_surface();
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    par::set_thread_count(threads);
    fuzz_events(f, 100 + threads, 48, 40);
  }
}

TEST(IncrementalDeltaFuzz, FieldZoo) {
  ThreadGuard guard;
  const field::PeaksField peaks(kRegion);
  const field::GaussianMixtureField bumps(
      1.0, {{{20.0, 20.0}, 9.0, 3.0}, {{70.0, 55.0}, -2.0, 14.0}});
  const field::PlaneField plane(1.0, 0.25, -0.125);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    par::set_thread_count(threads);
    fuzz_events(peaks, 7 + threads, 32, 36);
    fuzz_events(bumps, 11 + threads, 32, 36);
    fuzz_events(plane, 13 + threads, 32, 36);
  }
}

TEST(IncrementalDeltaFuzz, LatticeAlignedEdgesMatchBothOracles) {
  // Resolution 50 on the 100 m square puts the lattice at odd integer
  // coordinates.  With integer vertices, edges through odd coordinates
  // carry lattice points exactly; two vertices on one lattice row (or
  // column) at arbitrary x (or y) span an edge whose lattice points sit
  // at non-dyadic fractions of it, where the two triangles sharing the
  // edge interpolate different low bits.  So many points are non-strict,
  // covered points of an event fall on edges shared by two created
  // triangles, and the walk's hint decides their bits.  On a plane whose
  // values the vertices carry, δ is a sum of rounding residues, so those
  // bits reach the result.  Every event must still give the fresh
  // sweep's bits.
  ThreadGuard guard;
  const field::PlaneField plane(10.0, 0.3, -0.7);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    par::set_thread_count(threads);
    for (const std::uint64_t seed : {21u, 22u, 23u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed));
      fuzz_events(plane, seed, 60, 50, /*lattice_aligned=*/true);
    }
  }
}

// --- Pool resizes ----------------------------------------------------------

TEST(IncrementalDelta, SurvivesAPoolResizeWithoutRebuilding) {
  ThreadGuard guard;
  const auto f = reference_surface();
  DeltaMetric metric(kRegion, 40);
  geo::Delaunay dt(kRegion);
  num::Rng rng(3);
  for (int i = 0; i < 15; ++i) {
    dt.insert({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)},
              rng.uniform(-5.0, 5.0));
  }

  par::set_thread_count(1);
  IncrementalDelta inc(metric, f, dt);
  ASSERT_EQ(inc.value(), metric.delta(f, dt));

  // The chunk layout does not depend on the pool size, so the partial
  // sums stored at pool size 1 stay valid at pool size 4.
  par::set_thread_count(4);
  inc.apply(dt, dt.insert({12.0, 87.0}, 4.0));
  EXPECT_EQ(inc.value(), metric.delta(f, dt));
  EXPECT_EQ(inc.stats().rebuilds, 1u);  // Construction only.
}

// --- Tracker built from scratch --------------------------------------------

TEST(IncrementalDelta, FreshTrackerMatchesRasterAcrossPolicies) {
  const auto f = reference_surface();
  const auto samples = take_samples(
      f, std::vector<geo::Vec2>{{15.0, 25.0}, {60.0, 10.0}, {50.0, 50.0},
                                {80.0, 75.0}, {30.0, 90.0}});
  const DeltaMetric raster(kRegion, 50);
  for (const auto policy :
       {CornerPolicy::kNearestSample, CornerPolicy::kFieldValue}) {
    SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(policy)));
    const geo::Delaunay dt = reconstruct_surface(samples, kRegion, policy, &f);
    EXPECT_EQ(IncrementalDelta(raster, f, dt).value(),
              raster.delta_from_samples(f, samples, policy));
  }
}

TEST(IncrementalDelta, FreshTrackerRestartsTheWalkAtEachChunkHead) {
  // Resolution 50 on the 100 m square: lattice column 0 is x = 1 and the
  // chunk-head rows (j % 4 == 0) sit at y = 1, 9, 17, ….  A chain of
  // vertices on x = 1 at random y puts every column-0 point on an edge
  // shared by a triangle on each side, at a non-dyadic fraction of it, so
  // the two sides interpolate the plane to different low bits and the
  // walk's start decides which one δ sums.  The fresh sweep starts each
  // chunk head's walk at −1; a tracker built serially must too, not carry
  // the hint in from the previous chunk's last row.  On a plane the
  // residues sum exactly, so two rows' differences can cancel: hence
  // several seeds (a hint carried across chunks shows in five of these
  // eight).
  ThreadGuard guard;
  const field::PlaneField plane(10.0, 0.3, -0.7);
  const DeltaMetric metric(kRegion, 50);
  for (const std::size_t threads : {1u, 4u}) {
    par::set_thread_count(threads);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " seed=" + std::to_string(seed));
      num::Rng rng(seed);
      geo::Delaunay dt(kRegion);
      for (int corner = 0; corner < geo::Delaunay::kCorners; ++corner) {
        dt.set_vertex_z(corner, plane.value(dt.vertex(corner).pos));
      }
      const auto insert = [&](geo::Vec2 p) { dt.insert(p, plane.value(p)); };
      for (int i = 0; i < 12; ++i) insert({1.0, rng.uniform(0.0, 100.0)});
      for (int i = 0; i < 12; ++i) {
        insert({static_cast<double>(rng.uniform_int(3, 100)),
                static_cast<double>(rng.uniform_int(0, 100))});
      }
      const double fresh = metric.delta(plane, dt);
      EXPECT_EQ(IncrementalDelta(metric, plane, dt).value(), fresh);
      EXPECT_EQ(fresh, oracle::walk_delta(metric, plane, dt));
    }
  }
}

// --- FRA what-if tracking --------------------------------------------------

TEST(IncrementalDelta, FraTrackedTrajectoryMatchesDeploymentSweeps) {
  const auto f = reference_surface();
  DeltaMetric metric(kRegion, 64);

  FraConfig cfg;
  cfg.error_grid = 40;
  cfg.track_delta = &metric;
  FraPlanner planner(cfg);
  const FraResult plan =
      planner.plan_detailed(f, PlanRequest{kRegion, 40, 10.0});

  ASSERT_EQ(plan.delta_trajectory.size(), plan.steps.size());
  ASSERT_FALSE(plan.delta_trajectory.empty());
  // The headline contract fig7 relies on: the tracked final δ is the
  // delta_of_deployment value, bitwise — FRA's own triangulation IS the
  // kFieldValue reconstruction of its output.
  EXPECT_EQ(plan.final_delta,
            metric.delta_of_deployment(f, plan.deployment.positions,
                                       CornerPolicy::kFieldValue));
  EXPECT_EQ(plan.final_delta, plan.delta_trajectory.back());
  // And so is every prefix (spot-checked): the trajectory is the per-k
  // what-if series without per-k replanning.
  for (std::size_t i = 9; i < plan.steps.size(); i += 10) {
    SCOPED_TRACE("prefix " + std::to_string(i + 1));
    const std::vector<geo::Vec2> prefix(
        plan.deployment.positions.begin(),
        plan.deployment.positions.begin() + static_cast<std::ptrdiff_t>(i) +
            1);
    EXPECT_EQ(plan.delta_trajectory[i],
              metric.delta_of_deployment(f, prefix,
                                         CornerPolicy::kFieldValue));
  }
  EXPECT_EQ(plan.delta_stats.events, plan.steps.size());
  EXPECT_LT(plan.delta_stats.points_reevaluated,
            plan.delta_stats.events * plan.delta_stats.full_sweep_points);

  // Tracking must not perturb planning: the untracked plan is identical.
  FraConfig plain_cfg = cfg;
  plain_cfg.track_delta = nullptr;
  const FraResult plain =
      FraPlanner(plain_cfg).plan_detailed(f, PlanRequest{kRegion, 40, 10.0});
  ASSERT_EQ(plain.deployment.positions.size(),
            plan.deployment.positions.size());
  for (std::size_t i = 0; i < plain.deployment.positions.size(); ++i) {
    EXPECT_EQ(plain.deployment.positions[i].x,
              plan.deployment.positions[i].x);
    EXPECT_EQ(plain.deployment.positions[i].y,
              plan.deployment.positions[i].y);
  }
  EXPECT_TRUE(plain.delta_trajectory.empty());
}

// --- CmaDeltaTracker -------------------------------------------------------

TEST(CmaDeltaTracker, TracksOwnTriangulationBitExactlyThroughChurn) {
  const field::AnalyticTimeField env([](double x, double y, double t) {
    return 10.0 + 0.04 * x + 0.03 * y +
           3.0 * std::sin(0.05 * x + 0.3 * t) * std::cos(0.07 * y - 0.2 * t);
  });
  // A connected 3x3 grid plus a pair stacked exactly on one spot, out of
  // the grid's radio range.  The two hear only each other, so a fading
  // link cannot split them: both move identically and share one surface
  // vertex every slot.
  std::vector<geo::Vec2> pts;
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < 3; ++i) {
      pts.push_back({40.0 + i * 6.0, 40.0 + j * 6.0});
    }
  }
  pts.push_back({10.0, 10.0});
  pts.push_back({10.0, 10.0});

  CmaConfig cfg;
  CmaSimulation sim(env, kRegion, pts, cfg);
  sim.set_link_model(std::make_unique<net::GilbertElliottLink>(
      cfg.rc, net::GilbertElliottLink::Params{}, 23));
  net::FaultSchedule faults;
  faults.add_death(2, 4);
  faults.add_death(4, 7);
  faults.add_revival(6, 4);
  sim.set_fault_schedule(std::move(faults));

  DeltaMetric metric(kRegion, 40);
  CmaDeltaTracker tracker(sim, metric);

  // Every check below recomputes its reference without the tracker: the
  // end-to-end pipeline, a per-point walk over the tracker's surface, the
  // triangulation's own invariants, and the vertex set against the
  // simulation's living nodes and the field.
  const auto check = [&](double tracked) {
    const field::FieldSlice slice(env, sim.time());
    ASSERT_EQ(tracked, tracker.value());
    ASSERT_EQ(tracked, sim.current_delta(metric));
    const geo::Delaunay& dt = tracker.triangulation();
    ASSERT_EQ(tracked, oracle::walk_delta(metric, slice, dt));
    ASSERT_TRUE(dt.validate_topology());
    ASSERT_TRUE(dt.is_delaunay());

    std::vector<std::pair<double, double>> living;
    for (std::size_t i = 0; i < sim.node_count(); ++i) {
      if (sim.is_alive(i)) {
        living.emplace_back(sim.positions()[i].x, sim.positions()[i].y);
      }
    }
    std::sort(living.begin(), living.end());
    living.erase(std::unique(living.begin(), living.end()), living.end());
    std::vector<std::pair<double, double>> vertices;
    for (int v = geo::Delaunay::kCorners;
         v < static_cast<int>(dt.vertex_count()); ++v) {
      if (!dt.vertex_alive(v)) continue;
      const geo::DtVertex& vx = dt.vertex(v);
      ASSERT_EQ(vx.z, env.value(vx.pos, sim.time()));
      vertices.emplace_back(vx.pos.x, vx.pos.y);
    }
    std::sort(vertices.begin(), vertices.end());
    ASSERT_EQ(vertices, living);
  };

  check(tracker.value());
  std::size_t fewest_alive = sim.node_count();
  std::size_t stacked_slots = 0;
  for (std::size_t slot = 1; slot <= 12; ++slot) {
    SCOPED_TRACE("slot " + std::to_string(slot));
    sim.step();
    fewest_alive = std::min(fewest_alive, sim.alive_count());
    if (sim.positions()[9].x == sim.positions()[10].x &&
        sim.positions()[9].y == sim.positions()[10].y) {
      ++stacked_slots;
    }
    check(tracker.update(sim));
  }
  // The schedule really ran: two deaths, then the revival.
  EXPECT_EQ(fewest_alive, pts.size() - 2);
  EXPECT_EQ(sim.alive_count(), pts.size() - 1);
  EXPECT_EQ(stacked_slots, 12u);
}

}  // namespace
}  // namespace cps::core

// Bit-identity tests for the batched-evaluation PR:
//
//  * Field::value_row vs per-point value() across the whole field zoo
//    (analytic, grid, time-varying slices, the GreenOrbs trace) — the
//    batch kernels may hoist row-invariant work but must keep every
//    per-point expression bit-identical;
//  * DeltaMetric's raster sweep vs the per-point locate-walk reference
//    (tests/oracles.hpp), across corner policies, degenerate sample sets
//    (collinear, duplicates), and 1 / 4 worker threads;
//  * the content-keyed reference-lattice cache (on by default): cached
//    sweeps (the metric's and a fresh tracker's) must reproduce the
//    uncached bits exactly at 1 and 4 threads, copies must not
//    share entries, keys must track parameters / slice time / mutation,
//    and a recycled allocation must never resurrect a dead entry.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/delta.hpp"
#include "core/delta_incremental.hpp"
#include "core/planner.hpp"
#include "core/reconstruction.hpp"
#include "field/analytic_fields.hpp"
#include "field/grid_field.hpp"
#include "field/time_varying.hpp"
#include "numerics/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "oracles.hpp"
#include "trace/greenorbs.hpp"

namespace cps {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

// --- value_row vs scalar value() -----------------------------------------

/// Rows chosen to hit interior lattice rows, exact sample rows, and the
/// clamped boundary rows of grid-backed fields.
const double kRows[] = {0.0, 0.5, 13.37, 50.0, 99.5, 100.0};

std::vector<double> abscissae() {
  std::vector<double> xs;
  for (double x = 0.0; x <= 100.0; x += 1.7) xs.push_back(x);
  xs.push_back(100.0);  // Exactly the right edge (clamp path).
  return xs;
}

void expect_row_matches_scalar(const field::Field& f, const char* label) {
  const std::vector<double> xs = abscissae();
  std::vector<double> batch(xs.size());
  for (const double y : kRows) {
    SCOPED_TRACE(std::string(label) + " y=" + std::to_string(y));
    f.value_row(y, xs, batch.data());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(batch[i], f.value(xs[i], y)) << "x=" << xs[i];
    }
  }
}

TEST(ValueRowEquivalence, AnalyticZooMatchesScalar) {
  expect_row_matches_scalar(
      field::AnalyticField(
          [](double x, double y) { return 0.3 * x - 0.7 * y + x * y / 97.0; }),
      "analytic");
  expect_row_matches_scalar(field::ConstantField(4.25), "constant");
  expect_row_matches_scalar(field::PlaneField(1.0, 0.25, -0.125), "plane");
  expect_row_matches_scalar(
      field::QuadricField({30.0, 60.0}, 0.01, -0.002, 0.005), "quadric");
  expect_row_matches_scalar(field::PeaksField(kRegion), "peaks");
  expect_row_matches_scalar(
      field::GaussianMixtureField(1.0, {{{20.0, 20.0}, 9.0, 3.0},
                                        {{70.0, 55.0}, -2.0, 14.0}}),
      "gaussians");
}

TEST(ValueRowEquivalence, GridFieldMatchesScalar) {
  const field::PeaksField relief(kRegion);
  const field::GridField g = field::GridField::sample(relief, kRegion, 37, 29);
  expect_row_matches_scalar(g, "grid");
}

TEST(ValueRowEquivalence, TimeVaryingSlicesMatchScalar) {
  const trace::GreenOrbsField orbs{trace::GreenOrbsConfig{}};
  expect_row_matches_scalar(
      field::FieldSlice(orbs, trace::minutes(10, 0)), "greenorbs");

  const field::StaticTimeField still(
      std::make_shared<field::PeaksField>(kRegion));
  expect_row_matches_scalar(field::FieldSlice(still, 5.0), "static");

  // Two-frame sequence sliced strictly between the keyframes: the blend
  // kernel (scratch hi-row buffer) must reproduce the scalar blend bits.
  std::vector<field::GridField> frames;
  frames.push_back(orbs.snapshot(trace::minutes(9, 0), 41, 41));
  frames.push_back(orbs.snapshot(trace::minutes(11, 0), 41, 41));
  const field::FrameSequenceField seq(std::move(frames), {0.0, 10.0});
  expect_row_matches_scalar(field::FieldSlice(seq, 3.75), "frameseq");
}

// --- Raster sweep vs the per-point locate-walk reference ----------------

field::AnalyticField reference_surface() {
  return field::AnalyticField([](double x, double y) {
    return 10.0 + 0.05 * x * y / 100.0 + 3.0 * (x > 40 && x < 60) +
           2.0 * (y > 20 && y < 50);
  });
}

/// Raster δ of a deployment and the walk reference's δ of the same
/// reconstruction.
void expect_raster_matches_walk(const field::Field& f,
                                std::span<const geo::Vec2> positions,
                                core::CornerPolicy policy,
                                std::size_t resolution = 64) {
  const core::DeltaMetric metric(kRegion, resolution);
  const geo::Delaunay dt = core::reconstruct_surface(
      core::take_samples(f, positions), kRegion, policy, &f);
  const double raster = metric.delta(f, dt);
  EXPECT_EQ(raster, oracle::walk_delta(metric, f, dt));  // Bitwise.
  EXPECT_EQ(raster, metric.delta_of_deployment(f, positions, policy));
}

TEST(DeltaRasterEquivalence, RasterMatchesWalkAcrossPoliciesAndThreads) {
  const auto f = reference_surface();
  const auto plan =
      core::RandomPlanner(7).plan(f, core::PlanRequest{kRegion, 50, 10.0});
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    par::set_thread_count(threads);
    for (const auto policy : {core::CornerPolicy::kNearestSample,
                              core::CornerPolicy::kFieldValue}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " policy=" +
                   std::to_string(static_cast<int>(policy)));
      expect_raster_matches_walk(f, plan.positions, policy);
    }
  }
  par::set_thread_count(1);
}

TEST(DeltaRasterEquivalence, DegenerateSampleSets) {
  const auto f = reference_surface();
  // Collinear interior points (sliver triangles against the corners) and
  // exact duplicates: the raster pre-pass must agree with the walk on
  // whatever triangulation reconstruction produces.
  const std::vector<std::vector<geo::Vec2>> cases = {
      {{25.0, 50.0}, {50.0, 50.0}, {75.0, 50.0}},           // Collinear.
      {{30.0, 30.0}, {30.0, 30.0}, {60.0, 70.0}},           // Duplicate.
      {{50.0, 50.0}},                                       // Single point.
      {},                                                   // Corners only.
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    expect_raster_matches_walk(f, cases[c], core::CornerPolicy::kFieldValue);
  }
}

TEST(DeltaRasterEquivalence, LatticeAlignedEdgesOnAPlane) {
  // Resolution 50 on the 100 m square puts the lattice at odd integer
  // coordinates.  Vertices at integer coordinates, or on an odd-integer
  // lattice row or column, span edges that carry lattice points exactly;
  // such a point is not strictly inside either triangle sharing the edge,
  // so the raster's fallback walk (seeded by the previous point's
  // triangle) decides which one interpolates it, and the two differ in
  // the low bits.  On a plane whose values the vertices and corners carry,
  // δ is a sum of rounding residues, so those bits reach the result.
  const field::PlaneField plane(10.0, 0.3, -0.7);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    par::set_thread_count(threads);
    for (const std::uint64_t seed : {31u, 32u, 33u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " seed=" + std::to_string(seed));
      num::Rng rng(seed);
      const auto integer = [&] {
        return static_cast<double>(rng.uniform_int(0, 100));
      };
      const auto lattice_line = [&] {
        return static_cast<double>(2 * rng.uniform_int(0, 49) + 1);
      };
      std::vector<geo::Vec2> positions;
      for (int i = 0; i < 60; ++i) {
        const double u = rng.uniform();
        if (u < 0.5) {
          positions.push_back({integer(), integer()});
        } else if (u < 0.75) {
          positions.push_back({rng.uniform(0.0, 100.0), lattice_line()});
        } else {
          positions.push_back({lattice_line(), rng.uniform(0.0, 100.0)});
        }
      }
      expect_raster_matches_walk(plane, positions,
                                 core::CornerPolicy::kFieldValue, 50);
    }
  }
  par::set_thread_count(1);
}

TEST(DeltaRasterEquivalence, ResolutionOneLattice) {
  // A 1x1 evaluation lattice: one midpoint, one span row.  The raster
  // must survive it and agree with the walk.
  const auto f = reference_surface();
  const core::DeltaMetric metric(kRegion, 1);
  const auto dt = core::reconstruct_surface(
      {}, kRegion, core::CornerPolicy::kFieldValue, &f);
  EXPECT_EQ(metric.delta(f, dt), oracle::walk_delta(metric, f, dt));
  EXPECT_GT(metric.delta(f, dt), 0.0);
}

// --- Reference-lattice cache ----------------------------------------------

TEST(ReferenceCache, CachedSweepReproducesUncachedBits) {
  const trace::GreenOrbsField orbs{trace::GreenOrbsConfig{}};
  const field::FieldSlice frame(orbs, trace::minutes(10, 0));

  std::vector<std::vector<geo::Vec2>> deployments;
  for (std::size_t i = 0; i < 4; ++i) {
    deployments.push_back(
        core::RandomPlanner(40 + i)
            .plan(frame, core::PlanRequest{kRegion, 30, 10.0})
            .positions);
  }

  core::DeltaMetric plain(kRegion, 50);
  plain.set_reference_cache_capacity(0);  // The truly-uncached baseline.
  core::DeltaMetric cached(kRegion, 50);
  cached.set_reference_cache_capacity(4);
  EXPECT_EQ(cached.reference_cache_size(), 0u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    par::set_thread_count(threads);
    for (std::size_t i = 0; i < deployments.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " deployment " +
                   std::to_string(i));
      const double want = plain.delta_of_deployment(
          frame, deployments[i], core::CornerPolicy::kFieldValue);
      const double got = cached.delta_of_deployment(
          frame, deployments[i], core::CornerPolicy::kFieldValue);
      EXPECT_EQ(want, got);
      // A fresh tracker runs the same sweep over the same lattice, on
      // either metric.
      const geo::Delaunay dt = core::reconstruct_surface(
          core::take_samples(frame, deployments[i]), kRegion,
          core::CornerPolicy::kFieldValue, &frame);
      EXPECT_EQ(core::IncrementalDelta(plain, frame, dt).value(), want);
      EXPECT_EQ(core::IncrementalDelta(cached, frame, dt).value(), want);
    }
    // The capacity-0 lattice is the cached one, bit for bit.
    const auto plain_rows = plain.reference_lattice(frame);
    const auto cached_rows = cached.reference_lattice(frame);
    ASSERT_EQ(plain_rows->size(), cached_rows->size());
    EXPECT_EQ(std::memcmp(plain_rows->data(), cached_rows->data(),
                          plain_rows->size() * sizeof(double)),
              0);
  }
  par::set_thread_count(1);
  // One frame evaluated sixteen times: a single cache entry.
  EXPECT_EQ(cached.reference_cache_size(), 1u);

  // Fresh slice temporaries of the same frame must hit the same entry
  // (keying is underlying-field + time, not slice address).
  const double again = cached.delta_of_deployment(
      field::FieldSlice(orbs, trace::minutes(10, 0)), deployments[0],
      core::CornerPolicy::kFieldValue);
  EXPECT_EQ(again, plain.delta_of_deployment(frame, deployments[0],
                                             core::CornerPolicy::kFieldValue));
  EXPECT_EQ(cached.reference_cache_size(), 1u);

  // A different time is a different entry.
  const field::FieldSlice other(orbs, trace::minutes(14, 0));
  cached.delta_of_deployment(other, deployments[0],
                             core::CornerPolicy::kFieldValue);
  EXPECT_EQ(cached.reference_cache_size(), 2u);

  cached.clear_reference_cache();
  EXPECT_EQ(cached.reference_cache_size(), 0u);
}

TEST(ReferenceCache, ContentKeysTrackIdentityParametersAndMutation) {
  // Equal-parameter analytic fields share a key (so fig7-style sweeps
  // that rebuild the reference each evaluation still hit) ...
  const trace::GreenOrbsField a{trace::GreenOrbsConfig{}};
  const trace::GreenOrbsField b{trace::GreenOrbsConfig{}};
  EXPECT_EQ(a.content_key(), b.content_key());
  // ... different parameters do not ...
  trace::GreenOrbsConfig other;
  other.seed = 7;
  EXPECT_NE(a.content_key(), trace::GreenOrbsField{other}.content_key());
  // ... a slice folds its time into the underlying key ...
  const field::FieldSlice at10(a, trace::minutes(10, 0));
  const field::FieldSlice same(b, trace::minutes(10, 0));
  const field::FieldSlice at14(a, trace::minutes(14, 0));
  EXPECT_EQ(at10.content_key(), same.content_key());
  EXPECT_NE(at10.content_key(), at14.content_key());
  // ... and mutating a grid retires its old key.
  field::GridField grid(kRegion, 4, 4);
  const std::uint64_t before = grid.content_key();
  grid.set(1, 1, 3.5);
  EXPECT_NE(grid.content_key(), before);
}

TEST(ReferenceCache, RecycledAllocationCannotResurrectDeadEntry) {
  // The ABA hazard that kept the PR 5 cache opt-in: destroy a cached
  // reference, let the allocator hand its storage to a different field,
  // and evaluate again.  Address-keyed caching would serve the dead
  // field's lattice; content keys are never reused, so the second field
  // must miss and produce its own (different) delta.
  core::DeltaMetric metric(kRegion, 30);  // Cache on by default.
  const std::vector<geo::Vec2> probe{{50.0, 50.0}, {20.0, 80.0}};
  std::vector<double> deltas;
  for (const double fill : {1.0, 5.0}) {
    auto f = std::make_unique<field::GridField>(
        kRegion, 4, 4,
        std::vector<double>(16, fill));
    deltas.push_back(metric.delta_of_deployment(
        *f, probe, core::CornerPolicy::kFieldValue));
    // f destroyed here; the next GridField may reuse the allocation.
  }
  core::DeltaMetric fresh(kRegion, 30);
  fresh.set_reference_cache_capacity(0);
  const field::GridField five(kRegion, 4, 4, std::vector<double>(16, 5.0));
  EXPECT_NE(deltas[0], deltas[1]);
  EXPECT_EQ(deltas[1],
            fresh.delta_of_deployment(five, probe,
                                      core::CornerPolicy::kFieldValue));
}

TEST(ReferenceCache, CopiesShareConfigurationButNotEntries) {
  const trace::GreenOrbsField orbs{trace::GreenOrbsConfig{}};
  const field::FieldSlice frame(orbs, trace::minutes(10, 0));
  core::DeltaMetric metric(kRegion, 30);
  metric.set_reference_cache_capacity(2);
  metric.delta_of_deployment(frame, std::vector<geo::Vec2>{{50.0, 50.0}},
                             core::CornerPolicy::kFieldValue);
  ASSERT_EQ(metric.reference_cache_size(), 1u);

  const core::DeltaMetric copy(metric);
  EXPECT_EQ(copy.reference_cache_capacity(), 2u);
  EXPECT_EQ(copy.reference_cache_size(), 0u);

  // Eviction: capacity 2, three distinct frames.
  for (const int minute : {20, 40, 59}) {
    metric.delta_of_deployment(
        field::FieldSlice(orbs, trace::minutes(10, minute)),
        std::vector<geo::Vec2>{{50.0, 50.0}},
        core::CornerPolicy::kFieldValue);
  }
  EXPECT_EQ(metric.reference_cache_size(), 2u);
}

}  // namespace
}  // namespace cps

// PlannerService: the concurrent deployment-query engine
// (core/planner_service.hpp).
//
// The load-bearing claims: every job result is bit-identical to the
// equivalent direct call (Score vs DeltaMetric::delta_of_deployment, Plan
// vs Planner::plan, WhatIf vs a fresh DeltaMetric::delta of the
// identically mutated triangulation) and to the same job at any other
// pool size; snapshots and what-if base states are shared, not rebuilt
// per job; and a failing job reports through its future instead of
// tearing down the batch.  The equivalence tests run at pool sizes 1 and
// 4 — CI's service-equivalence leg re-runs them under tsan with
// CPS_THREADS=4.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "core/delta.hpp"
#include "core/fra.hpp"
#include "core/planner_service.hpp"
#include "core/reconstruction.hpp"
#include "field/analytic_fields.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::core {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};
constexpr std::size_t kRes = 64;

std::shared_ptr<const field::Field> make_field() {
  return std::make_shared<field::PeaksField>(kRegion);
}

/// Pins the process pool for one scope; restores the default after.
struct PoolGuard {
  explicit PoolGuard(std::size_t n) { par::set_thread_count(n); }
  ~PoolGuard() { par::set_thread_count(0); }
};

TEST(PlannerService, ScoreMatchesDirectDelta) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    PoolGuard pool(threads);
    const auto field = make_field();
    const DeltaMetric metric(kRegion, kRes);
    PlannerService service;
    const auto snapshot = service.intern(field);
    std::vector<std::future<JobResult>> futures;
    std::vector<double> expected;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto d =
          RandomPlanner(seed).plan(*field, {kRegion, 20 + seed, 10.0});
      expected.push_back(metric.delta_of_deployment(
          *field, d.positions, CornerPolicy::kFieldValue));
      futures.push_back(service.submit(
          ScoreJob{snapshot, d, kRegion, kRes, CornerPolicy::kFieldValue}));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const JobResult r = futures[i].get();
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.delta, expected[i]);
      EXPECT_GE(r.latency_ms, r.exec_ms);
    }
  }
}

TEST(PlannerService, PlanMatchesDirectPlanner) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    PoolGuard pool(threads);
    const auto field = make_field();
    PlannerService service;
    const auto snapshot = service.intern(field);

    const PlanRequest fra_req{kRegion, 15, 10.0, /*lattice=*/40};
    const PlanRequest rnd_req{kRegion, 30, 10.0, 0, /*seed=*/7};
    const PlanRequest fpp_req{kRegion, 25, 10.0, /*lattice=*/30};
    const PlanRequest grid_req{kRegion, 24, 10.0};

    auto f_fra = service.submit(PlanJob{snapshot, PlannerKind::kFra, fra_req});
    auto f_rnd =
        service.submit(PlanJob{snapshot, PlannerKind::kRandom, rnd_req});
    auto f_fpp = service.submit(
        PlanJob{snapshot, PlannerKind::kFarthestPoint, fpp_req});
    auto f_grid =
        service.submit(PlanJob{snapshot, PlannerKind::kGrid, grid_req,
                               /*score_resolution=*/kRes});

    EXPECT_EQ(f_fra.get().deployment.positions,
              FraPlanner().plan(*field, fra_req).positions);
    EXPECT_EQ(f_rnd.get().deployment.positions,
              RandomPlanner().plan(*field, rnd_req).positions);
    EXPECT_EQ(f_fpp.get().deployment.positions,
              FarthestPointPlanner().plan(*field, fpp_req).positions);
    const JobResult grid = f_grid.get();
    const auto direct_grid = GridPlanner().plan(*field, grid_req);
    EXPECT_EQ(grid.deployment.positions, direct_grid.positions);
    const DeltaMetric metric(kRegion, kRes);
    EXPECT_EQ(grid.delta,
              metric.delta_of_deployment(*field, direct_grid.positions,
                                         CornerPolicy::kFieldValue));
  }
}

TEST(PlannerService, WhatIfMatchesFreshDeltaOfMutatedSurface) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    PoolGuard pool(threads);
    const auto field = make_field();
    // Random interior positions: none coincides with a corner, so node i
    // maps to vertex kCorners + i in the replicated reconstruction below
    // (a FarthestPoint base would hit the corners and break that).
    const auto base = std::make_shared<Deployment>(
        RandomPlanner(3).plan(*field, {kRegion, 25, 10.0}));

    PlannerService service;
    const auto snapshot = service.intern(field);
    WhatIfJob move{snapshot, base, WhatIfJob::Op::kMove, 3,
                   {12.25, 47.5},  kRegion, kRes};
    WhatIfJob insert{snapshot, base, WhatIfJob::Op::kInsert, 0,
                     {71.5, 23.25}, kRegion, kRes};
    WhatIfJob remove{snapshot, base, WhatIfJob::Op::kRemove, 5,
                     {0.0, 0.0},    kRegion, kRes};
    auto f_move = service.submit(move);
    auto f_insert = service.submit(insert);
    auto f_remove = service.submit(remove);

    // Direct oracle: mutate a copy of the same reconstruction, score it
    // with a fresh full sweep.  Node i's vertex id is kCorners + i (the
    // corner scaffolding precedes the insertions; no duplicates here).
    const DeltaMetric metric(kRegion, kRes);
    const auto samples = take_samples(*field, base->positions);
    const geo::Delaunay dt_base = reconstruct_surface(
        samples, kRegion, CornerPolicy::kFieldValue, field.get());
    {
      geo::Delaunay dt = dt_base;
      dt.move_vertex(geo::Delaunay::kCorners + 3, {12.25, 47.5},
                     field->value({12.25, 47.5}));
      ASSERT_TRUE(dt.validate_topology());
      ASSERT_TRUE(dt.is_delaunay());
      const JobResult r = f_move.get();
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.delta, metric.delta(*field, dt));
    }
    {
      geo::Delaunay dt = dt_base;
      dt.insert({71.5, 23.25}, field->value({71.5, 23.25}));
      ASSERT_TRUE(dt.validate_topology());
      ASSERT_TRUE(dt.is_delaunay());
      const JobResult r = f_insert.get();
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.delta, metric.delta(*field, dt));
    }
    {
      geo::Delaunay dt = dt_base;
      dt.remove(geo::Delaunay::kCorners + 5);
      ASSERT_TRUE(dt.validate_topology());
      ASSERT_TRUE(dt.is_delaunay());
      const JobResult r = f_remove.get();
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.delta, metric.delta(*field, dt));
    }
  }
}

/// One Score, Plan and WhatIf job of each kind through `service`, in
/// submission order.
std::vector<JobResult> run_job_mix(PlannerService& service,
                                   const std::shared_ptr<const field::Field>&
                                       field) {
  const auto snapshot = service.intern(field);
  const auto base = std::make_shared<Deployment>(
      RandomPlanner(3).plan(*field, {kRegion, 25, 10.0}));
  std::vector<std::future<JobResult>> futures;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    futures.push_back(service.submit(ScoreJob{
        snapshot, RandomPlanner(seed).plan(*field, {kRegion, 20 + seed, 10.0}),
        kRegion, kRes}));
  }
  futures.push_back(service.submit(PlanJob{
      snapshot, PlannerKind::kFra, {kRegion, 15, 10.0, /*lattice=*/40},
      /*score_resolution=*/kRes}));
  futures.push_back(service.submit(PlanJob{
      snapshot, PlannerKind::kRandom, {kRegion, 30, 10.0, 0, /*seed=*/7},
      /*score_resolution=*/kRes}));
  futures.push_back(service.submit(PlanJob{
      snapshot, PlannerKind::kFarthestPoint,
      {kRegion, 25, 10.0, /*lattice=*/30}, /*score_resolution=*/kRes}));
  futures.push_back(service.submit(PlanJob{
      snapshot, PlannerKind::kGrid, {kRegion, 24, 10.0},
      /*score_resolution=*/kRes}));
  futures.push_back(service.submit(WhatIfJob{
      snapshot, base, WhatIfJob::Op::kMove, 3, {12.25, 47.5}, kRegion, kRes}));
  futures.push_back(service.submit(WhatIfJob{
      snapshot, base, WhatIfJob::Op::kInsert, 0, {71.5, 23.25}, kRegion,
      kRes}));
  futures.push_back(service.submit(WhatIfJob{
      snapshot, base, WhatIfJob::Op::kRemove, 5, {0.0, 0.0}, kRegion, kRes}));
  std::vector<JobResult> results;
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

void expect_same_results(const std::vector<JobResult>& a,
                         const std::vector<JobResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(a[i].ok) << a[i].error;
    ASSERT_TRUE(b[i].ok) << b[i].error;
    EXPECT_EQ(a[i].delta, b[i].delta);
    EXPECT_EQ(a[i].deployment.positions, b[i].deployment.positions);
  }
}

TEST(PlannerService, ResultsIdenticalAcrossPoolSizes) {
  const auto field = make_field();
  std::vector<JobResult> at1;
  std::vector<JobResult> resized;
  std::vector<JobResult> at4;
  {
    // The second round runs at pool size 4 on base states (and their
    // IncrementalDelta trackers) cached at pool size 1.
    PoolGuard pool(1);
    PlannerService service;
    at1 = run_job_mix(service, field);
    service.wait_idle();
    par::set_thread_count(4);
    resized = run_job_mix(service, field);
    EXPECT_EQ(service.stats().base_state_misses, 1u);
  }
  {
    PoolGuard pool(4);
    PlannerService service;
    at4 = run_job_mix(service, field);
  }
  expect_same_results(at1, at4);
  expect_same_results(resized, at4);
}

TEST(PlannerService, BaseStateIsBuiltOnceAndShared) {
  PoolGuard pool(4);
  const auto field = make_field();
  const auto base = std::make_shared<Deployment>(
      GridPlanner::make_grid(kRegion, 16));
  PlannerService service;
  const auto snapshot = service.intern(field);
  std::vector<std::future<JobResult>> futures;
  for (std::size_t node = 0; node < 8; ++node) {
    futures.push_back(service.submit(WhatIfJob{
        snapshot, base, WhatIfJob::Op::kMove, node, {50.5, 50.5}, kRegion,
        kRes}));
  }
  for (auto& f : futures) {
    const JobResult r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.base_state_misses, 1u);
  EXPECT_EQ(stats.base_state_hits, 7u);
  EXPECT_EQ(stats.whatif_jobs, 8u);
}

TEST(PlannerService, SnapshotInterningDeduplicatesByContentKey) {
  PlannerService service;
  const auto field = make_field();
  const auto a = service.intern(field);
  const auto b = service.intern(field);
  EXPECT_EQ(a.get(), b.get());  // Same snapshot object, not just same key.
  const auto stats = service.stats();
  EXPECT_EQ(stats.snapshot_misses, 1u);
  EXPECT_EQ(stats.snapshot_hits, 1u);
}

TEST(PlannerService, FailedJobsReportThroughTheirFuture) {
  PoolGuard pool(2);
  const auto field = make_field();
  const auto base = std::make_shared<Deployment>(
      GridPlanner::make_grid(kRegion, 9));
  PlannerService service;
  const auto snapshot = service.intern(field);

  // Out-of-region destination and out-of-range node index both fail their
  // own job only.
  auto f_outside = service.submit(WhatIfJob{
      snapshot, base, WhatIfJob::Op::kMove, 0, {500.0, 500.0}, kRegion,
      kRes});
  auto f_badnode = service.submit(WhatIfJob{
      snapshot, base, WhatIfJob::Op::kRemove, 99, {0.0, 0.0}, kRegion,
      kRes});
  auto f_nullfield = service.submit(ScoreJob{nullptr, *base, kRegion, kRes});
  const JobResult outside = f_outside.get();
  EXPECT_FALSE(outside.ok);
  EXPECT_FALSE(outside.error.empty());
  EXPECT_FALSE(f_badnode.get().ok);
  EXPECT_FALSE(f_nullfield.get().ok);

  // The service survives and keeps serving.
  auto f_ok = service.submit(ScoreJob{snapshot, *base, kRegion, kRes});
  EXPECT_TRUE(f_ok.get().ok);
  EXPECT_EQ(service.stats().errors, 3u);
}

TEST(PlannerService, DrainsBeyondMaxBatchAndWaitsIdle) {
  PoolGuard pool(4);
  PlannerService::Config config;
  config.max_batch = 4;
  PlannerService service(config);
  const auto snapshot = service.intern(make_field());
  const auto d = GridPlanner::make_grid(kRegion, 12);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(
        service.submit(ScoreJob{snapshot, d, kRegion, /*resolution=*/16}));
  }
  service.wait_idle();
  EXPECT_EQ(service.queue_depth(), 0u);
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_GE(stats.batches, 3u);
  EXPECT_LE(stats.max_batch_size, 4u);
}

TEST(PlannerService, DestructorDrainsOutstandingJobs) {
  std::vector<std::future<JobResult>> futures;
  {
    PlannerService service;
    const auto snapshot = service.intern(make_field());
    const auto d = GridPlanner::make_grid(kRegion, 8);
    for (int i = 0; i < 6; ++i) {
      futures.push_back(
          service.submit(ScoreJob{snapshot, d, kRegion, /*resolution=*/16}));
    }
  }  // No wait_idle: the destructor must finish every accepted job.
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
}

}  // namespace
}  // namespace cps::core

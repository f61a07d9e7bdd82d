// End-to-end determinism contract of the parallel layer: the planners and
// metrics must produce the same bits at every pool size.  Work is chunked
// by (n, grain) only — never by thread count — and partials combine in
// chunk order; threads = 1 runs the same chunks inline, so any worker
// count, 1 included, reproduces the same results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cma.hpp"
#include "core/delta.hpp"
#include "core/delta_incremental.hpp"
#include "core/fra.hpp"
#include "core/planner.hpp"
#include "core/reconstruction.hpp"
#include "field/analytic_fields.hpp"
#include "field/time_varying.hpp"
#include "graph/geometric_graph.hpp"
#include "numerics/rng.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::core {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

class ThreadScope {
 public:
  explicit ThreadScope(std::size_t n) { par::set_thread_count(n); }
  ~ThreadScope() { par::set_thread_count(0); }
};

field::GaussianMixtureField test_field() {
  return field::GaussianMixtureField(0.5, {{{25.0, 30.0}, 3.0, 8.0},
                                           {{70.0, 65.0}, 2.0, 12.0},
                                           {{45.0, 80.0}, 4.0, 6.0}});
}

TEST(ParallelDeterminism, FraDeploymentIdenticalAtEveryThreadCount) {
  const auto f = test_field();
  FraConfig cfg;
  cfg.error_grid = 50;
  std::vector<std::vector<geo::Vec2>> runs;
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    ThreadScope scope(threads);
    FraPlanner planner(cfg);
    runs.push_back(
        planner.plan(f, PlanRequest{kRegion, 40, 10.0}).positions);
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i].x, runs[0][i].x) << "run " << r << " node " << i;
      EXPECT_EQ(runs[r][i].y, runs[0][i].y) << "run " << r << " node " << i;
    }
  }
}

TEST(ParallelDeterminism, FraCurvatureMeasureIdenticalAcrossThreadCounts) {
  const auto f = test_field();
  FraConfig cfg;
  cfg.error_grid = 30;
  cfg.measure = SelectionMeasure::kProduct;
  std::vector<std::vector<geo::Vec2>> runs;
  for (const std::size_t threads : {1u, 3u}) {
    ThreadScope scope(threads);
    FraPlanner planner(cfg);
    runs.push_back(
        planner.plan(f, PlanRequest{kRegion, 15, 10.0}).positions);
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(ParallelDeterminism, CmaTrajectoriesIdenticalAcrossThreadCounts) {
  const auto shared = std::make_shared<field::GaussianMixtureField>(
      0.5, std::vector<field::GaussianBump>{{{30.0, 30.0}, 3.0, 8.0},
                                            {{70.0, 60.0}, 2.5, 10.0}});
  CmaConfig cfg;
  cfg.sample_spacing = 1.0;
  cfg.rc = 100.0 / 5.0 * 1.001;  // Keep the 25-node grid connected.
  std::vector<std::vector<geo::Vec2>> runs;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadScope scope(threads);
    const field::StaticTimeField env(shared);
    CmaSimulation sim(env, kRegion,
                      GridPlanner::make_grid(kRegion, 25).positions, cfg);
    sim.run(25);
    runs.push_back(sim.positions());
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i].x, runs[0][i].x) << "run " << r << " node " << i;
      EXPECT_EQ(runs[r][i].y, runs[0][i].y) << "run " << r << " node " << i;
    }
  }
}

TEST(ParallelDeterminism, GeometricGraphMatchesAllPairsOracle) {
  num::Rng rng(77);
  std::vector<geo::Vec2> pts(250);
  for (auto& p : pts) {
    p = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
  }
  const double radius = 9.0;
  const double r2 = radius * radius;
  for (const std::size_t threads : {1u, 4u}) {
    ThreadScope scope(threads);
    const graph::GeometricGraph g(pts, radius);
    std::size_t oracle_edges = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      std::vector<std::size_t> oracle;
      for (std::size_t j = 0; j < pts.size(); ++j) {
        if (i != j && geo::distance_sq(pts[i], pts[j]) <= r2) {
          oracle.push_back(j);
        }
      }
      oracle_edges += oracle.size();
      EXPECT_EQ(g.neighbors(i), oracle) << "node " << i;
    }
    EXPECT_EQ(g.edge_count(), oracle_edges / 2);
  }
}

TEST(ParallelDeterminism, DeltaMetricIdenticalAtEveryThreadCount) {
  const auto f = test_field();
  const DeltaMetric metric(kRegion, 100);
  const auto grid = GridPlanner::make_grid(kRegion, 36);
  const auto samples = take_samples(f, grid.positions);
  par::set_thread_count(2);
  const double at2 = metric.delta_from_samples(f, samples);
  par::set_thread_count(4);
  const double at4 = metric.delta_from_samples(f, samples);
  par::set_thread_count(1);
  const double at1 = metric.delta_from_samples(f, samples);
  par::set_thread_count(0);
  // Same chunk layout at every pool size: same bits.
  EXPECT_EQ(at2, at4);
  EXPECT_EQ(at1, at2);
}

// Arming the telemetry timeline changes no arithmetic: the annotated δ
// value, and every counter delta the sample carries (walk steps depend on
// per-chunk hint chains), are bit-identical at every thread count, and
// the δ equals the disarmed one.
TEST(ParallelDeterminism, ArmedTimelineDeltaIdenticalAtEveryThreadCount) {
  const auto f = test_field();
  DeltaMetric metric(kRegion, 100);
  const auto grid = GridPlanner::make_grid(kRegion, 36);
  const auto samples = take_samples(f, grid.positions);

  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  std::vector<double> values;
  std::vector<std::vector<std::pair<std::string, double>>> fields;
  std::vector<std::vector<std::pair<std::string, std::uint64_t>>> counters;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadScope scope(threads);
    obs::registry().reset();  // Per-run counts: first-sample deltas match.
    // The reference cache is content-keyed and on by default, so the
    // second run would hit where the first missed; empty it so every
    // thread count does identical work (including the miss+fill path).
    metric.clear_reference_cache();
    obs::timeline().clear();
    obs::timeline().set_armed(true);
    values.push_back(metric.delta_from_samples(f, samples));
    obs::timeline().set_armed(false);
#if defined(CPS_OBS_ENABLED)
    ASSERT_EQ(obs::timeline().sample_count(), 1u) << threads << " threads";
    fields.push_back(obs::timeline().sample_at(0).fields);
    counters.push_back(obs::timeline().sample_at(0).counter_deltas);
#endif
    obs::timeline().clear();
  }
  obs::set_enabled(obs_was_enabled);
  for (const std::size_t threads : {1u, 4u}) {
    ThreadScope scope(threads);
    EXPECT_EQ(metric.delta_from_samples(f, samples), values[0])
        << "disarmed, " << threads << " threads";
  }

  EXPECT_EQ(values[0], values[1]);
  EXPECT_EQ(values[1], values[2]);
#if defined(CPS_OBS_ENABLED)
  EXPECT_EQ(fields[0], fields[1]);
  EXPECT_EQ(fields[1], fields[2]);
  EXPECT_EQ(counters[0], counters[1]);
  EXPECT_EQ(counters[1], counters[2]);
#endif
}

// Every δ the library reports — a fresh sweep, delta_between, a tracker
// after cavity events and FRA's what-if trajectory — has the same bits at
// pool sizes 1, 2 and 4, with the timeline armed or disarmed.
TEST(ParallelDeterminism, DeltaValuesIdenticalAcrossPoolSizesAndArming) {
  const auto f = test_field();
  const field::GaussianMixtureField g(
      0.3, {{{40.0, 40.0}, 2.0, 9.0}, {{60.0, 70.0}, 1.5, 11.0}});
  const DeltaMetric metric(kRegion, 90);
  const auto samples =
      take_samples(f, GridPlanner::make_grid(kRegion, 36).positions);
  FraConfig cfg;
  cfg.error_grid = 30;
  cfg.track_delta = &metric;

  struct Run {
    double delta;
    double between;
    double tracked;
    std::vector<double> trajectory;
  };
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  std::vector<Run> runs;
  for (const bool armed : {false, true}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      ThreadScope scope(threads);
      obs::timeline().clear();
      obs::timeline().set_armed(armed);
      Run run;
      run.delta = metric.delta_from_samples(f, samples);
      run.between = metric.delta_between(f, g);
      geo::Delaunay dt =
          reconstruct_surface(samples, kRegion, CornerPolicy::kFieldValue, &f);
      IncrementalDelta inc(metric, f, dt);
      inc.apply(dt, dt.insert({31.5, 62.25}, f.value({31.5, 62.25})));
      inc.apply(dt, dt.move_vertex(geo::Delaunay::kCorners + 7, {55.0, 12.5},
                                   f.value({55.0, 12.5})));
      inc.apply(dt, dt.remove(geo::Delaunay::kCorners + 20));
      run.tracked = inc.value();
      EXPECT_EQ(run.tracked, metric.delta(f, dt))
          << (armed ? "armed, " : "disarmed, ") << threads << " threads";
      run.trajectory = FraPlanner(cfg)
                           .plan_detailed(f, PlanRequest{kRegion, 20, 10.0})
                           .delta_trajectory;
      obs::timeline().set_armed(false);
      obs::timeline().clear();
      runs.push_back(std::move(run));
    }
  }
  obs::set_enabled(obs_was_enabled);

  ASSERT_FALSE(runs[0].trajectory.empty());
  for (std::size_t r = 1; r < runs.size(); ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(runs[r].delta, runs[0].delta);
    EXPECT_EQ(runs[r].between, runs[0].between);
    EXPECT_EQ(runs[r].tracked, runs[0].tracked);
    EXPECT_EQ(runs[r].trajectory, runs[0].trajectory);
  }
}

}  // namespace
}  // namespace cps::core

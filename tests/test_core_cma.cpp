// Tests for the Coordinated Movement Algorithm simulation (core/cma.hpp).
#include "core/cma.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/planner.hpp"
#include "field/analytic_fields.hpp"
#include "field/time_varying.hpp"

namespace cps::core {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

std::shared_ptr<const field::Field> mixture_field() {
  return std::make_shared<field::GaussianMixtureField>(
      0.5, std::vector<field::GaussianBump>{{{30.0, 30.0}, 3.0, 8.0},
                                            {{70.0, 60.0}, 2.5, 10.0}});
}

field::StaticTimeField static_env() {
  return field::StaticTimeField(mixture_field());
}

CmaConfig fast_config() {
  CmaConfig cfg;
  cfg.sample_spacing = 1.0;
  return cfg;
}

// The initial grid is only connected when its pitch is <= Rc; match Rc to
// the pitch of a k-node grid over the 100 x 100 region (k = 100 gives the
// paper's Rc = 10).
CmaConfig config_for_grid(std::size_t k) {
  CmaConfig cfg = fast_config();
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(k))));
  cfg.rc = 100.0 / static_cast<double>(cols) * 1.001;
  return cfg;
}

TEST(Cma, ConstructionValidation) {
  const auto env = static_env();
  EXPECT_THROW(CmaSimulation(env, kRegion, {}, fast_config()),
               std::invalid_argument);
  EXPECT_THROW(CmaSimulation(env, kRegion, {{200.0, 0.0}}, fast_config()),
               std::invalid_argument);
  CmaConfig bad = fast_config();
  bad.rs = 0.0;
  EXPECT_THROW(CmaSimulation(env, kRegion, {{5.0, 5.0}}, bad),
               std::invalid_argument);
  bad = fast_config();
  bad.dt = 0.0;
  EXPECT_THROW(CmaSimulation(env, kRegion, {{5.0, 5.0}}, bad),
               std::invalid_argument);
  // NaN fails every ordered comparison, so each must be rejected too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double CmaConfig::*field :
       {&CmaConfig::rs, &CmaConfig::rc, &CmaConfig::dt,
        &CmaConfig::force_gain, &CmaConfig::velocity}) {
    bad = fast_config();
    bad.*field = nan;
    EXPECT_THROW(CmaSimulation(env, kRegion, {{5.0, 5.0}}, bad),
                 std::invalid_argument);
  }
}

TEST(Cma, TimeAdvancesBySlot) {
  const auto env = static_env();
  CmaSimulation sim(env, kRegion, GridPlanner::make_grid(kRegion, 16).positions,
                    fast_config(), 600.0);
  EXPECT_DOUBLE_EQ(sim.time(), 600.0);
  sim.step();
  EXPECT_DOUBLE_EQ(sim.time(), 601.0);
  sim.run(4);
  EXPECT_DOUBLE_EQ(sim.time(), 605.0);
}

TEST(Cma, SpeedCapRespected) {
  const auto env = static_env();
  CmaSimulation sim(env, kRegion, GridPlanner::make_grid(kRegion, 25).positions,
                    fast_config());
  for (int i = 0; i < 10; ++i) {
    const auto before = sim.positions();
    sim.step();
    const auto& after = sim.positions();
    for (std::size_t n = 0; n < before.size(); ++n) {
      // v * dt = 1 m per slot (plus a hair of float slack).
      ASSERT_LE(geo::distance(before[n], after[n]), 1.0 + 1e-9);
    }
    EXPECT_LE(sim.last_max_displacement(), 1.0 + 1e-9);
  }
}

TEST(Cma, NodesStayInsideRegion) {
  const auto env = static_env();
  CmaSimulation sim(env, kRegion, GridPlanner::make_grid(kRegion, 36).positions,
                    fast_config());
  sim.run(20);
  for (const auto& p : sim.positions()) {
    EXPECT_TRUE(kRegion.contains(p.x, p.y));
  }
}

TEST(Cma, ConnectivityMaintainedOnStaticField) {
  // The OSTD constraint: the LCM must keep the disk graph connected every
  // slot, starting from the connected grid.
  const auto env = static_env();
  CmaSimulation sim(env, kRegion, GridPlanner::make_grid(kRegion, 49).positions,
                    config_for_grid(49));
  ASSERT_TRUE(sim.is_connected());
  for (int slot = 0; slot < 30; ++slot) {
    sim.step();
    ASSERT_TRUE(sim.is_connected()) << "slot " << slot;
  }
}

TEST(Cma, DeterministicForSeedAndStart) {
  const auto env = static_env();
  const auto init = GridPlanner::make_grid(kRegion, 16).positions;
  CmaSimulation a(env, kRegion, init, fast_config());
  CmaSimulation b(env, kRegion, init, fast_config());
  a.run(10);
  b.run(10);
  EXPECT_EQ(a.positions(), b.positions());
}

TEST(Cma, DeltaImprovesOverTimeOnStaticField) {
  // Fig. 10's qualitative behaviour on a frozen environment: moving toward
  // the curvature-weighted pattern reduces delta versus the initial grid.
  // The redistribution needs a free topology (see LcmMode): the strict
  // invariant pins a taut lattice, which StrictLcmTradesDeltaForSafety
  // checks separately.
  const auto env = static_env();
  const auto init = GridPlanner::make_grid(kRegion, 49).positions;
  CmaConfig cfg = config_for_grid(49);
  cfg.lcm = LcmMode::kOff;
  CmaSimulation sim(env, kRegion, init, cfg);
  const DeltaMetric metric(kRegion, 50);
  const double before = sim.current_delta(metric);
  sim.run(40);
  const double after = sim.current_delta(metric);
  EXPECT_LT(after, before);
}

TEST(Cma, StrictLcmTradesDeltaForSafety) {
  // The strict LCM may sacrifice abstraction quality, but never
  // connectivity; the free-topology run adapts more but fragments.
  const auto env = static_env();
  const auto init = GridPlanner::make_grid(kRegion, 49).positions;
  CmaConfig strict_cfg = config_for_grid(49);
  strict_cfg.lcm = LcmMode::kStrict;
  CmaConfig off_cfg = strict_cfg;
  off_cfg.lcm = LcmMode::kOff;
  CmaSimulation strict_sim(env, kRegion, init, strict_cfg);
  CmaSimulation off_sim(env, kRegion, init, off_cfg);
  const DeltaMetric metric(kRegion, 50);
  for (int slot = 0; slot < 40; ++slot) {
    strict_sim.step();
    off_sim.step();
    ASSERT_TRUE(strict_sim.is_connected()) << "slot " << slot;
  }
  // Free topology adapts at least as well as the constrained one.
  EXPECT_LE(off_sim.current_delta(metric),
            strict_sim.current_delta(metric) * 1.05);
}

TEST(Cma, EventuallySettlesOnStaticField) {
  // On a frozen field the abstraction quality stabilises (Fig. 10's
  // flattening): delta stops changing even though individual nodes may
  // keep micro-adjusting at the speed cap (the force model is undamped).
  const auto env = static_env();
  CmaSimulation sim(env, kRegion, GridPlanner::make_grid(kRegion, 25).positions,
                    config_for_grid(25));
  const DeltaMetric metric(kRegion, 50);
  sim.run(100);
  const double d100 = sim.current_delta(metric);
  sim.run(100);
  const double d200 = sim.current_delta(metric);
  EXPECT_NEAR(d200, d100, 0.15 * d100);
}

TEST(Cma, PaperLcmChasesAndMostlyHoldsTogether) {
  // The literal Fig. 4 rule is best effort: it fires chases and keeps a
  // dominant component, but cannot guarantee a connected graph under
  // concurrent movement (quantified by bench_fig10_delta_vs_time).
  const auto env = static_env();
  CmaConfig cfg = config_for_grid(49);
  cfg.lcm = LcmMode::kPaper;
  CmaSimulation sim(env, kRegion, GridPlanner::make_grid(kRegion, 49).positions,
                    cfg);
  sim.run(30);
  EXPECT_GE(sim.largest_component_fraction(), 0.5);
}

TEST(Cma, LargestComponentFractionIsOneWhenConnected) {
  const auto env = static_env();
  CmaSimulation sim(env, kRegion, GridPlanner::make_grid(kRegion, 100).positions,
                    config_for_grid(100));
  EXPECT_DOUBLE_EQ(sim.largest_component_fraction(), 1.0);
}

TEST(Cma, SenseAtNodesMatchesEnvironment) {
  const auto env = static_env();
  CmaSimulation sim(env, kRegion, GridPlanner::make_grid(kRegion, 9).positions,
                    fast_config(), 0.0);
  const auto samples = sim.sense_at_nodes();
  ASSERT_EQ(samples.size(), 9u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].position, sim.positions()[i]);
    EXPECT_DOUBLE_EQ(samples[i].z, env.value(samples[i].position, 0.0));
  }
}

TEST(Cma, ForcesExposedPerNode) {
  const auto env = static_env();
  CmaSimulation sim(env, kRegion, GridPlanner::make_grid(kRegion, 9).positions,
                    fast_config());
  sim.step();
  EXPECT_EQ(sim.last_forces().size(), 9u);
}

TEST(Cma, TimeVaryingEnvironmentTracksChange) {
  // A bump that jumps across the region between t=0 and t=60: nodes keep
  // maintaining connectivity and stay in-region while re-adapting.
  const field::AnalyticTimeField env([](double x, double y, double t) {
    const double cx = t < 30.0 ? 25.0 : 75.0;
    const double dx = x - cx;
    const double dy = y - 50.0;
    return 3.0 * std::exp(-(dx * dx + dy * dy) / 200.0);
  });
  CmaSimulation sim(env, kRegion, GridPlanner::make_grid(kRegion, 36).positions,
                    config_for_grid(36));
  for (int slot = 0; slot < 60; ++slot) {
    sim.step();
    ASSERT_TRUE(sim.is_connected()) << "slot " << slot;
  }
  for (const auto& p : sim.positions()) {
    EXPECT_TRUE(kRegion.contains(p.x, p.y));
  }
}

TEST(Cma, LossyRadioStillKeepsNetworkTogether) {
  CmaConfig cfg = config_for_grid(25);
  cfg.packet_loss = 0.2;
  const auto env = static_env();
  CmaSimulation sim(env, kRegion, GridPlanner::make_grid(kRegion, 25).positions,
                    cfg);
  sim.run(25);
  EXPECT_TRUE(sim.is_connected());
}

// Property sweep: connectivity invariant across node counts.
class CmaConnectivitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CmaConnectivitySweep, StaysConnected) {
  const auto env = static_env();
  CmaSimulation sim(env, kRegion,
                    GridPlanner::make_grid(kRegion, GetParam()).positions,
                    config_for_grid(GetParam()));
  for (int slot = 0; slot < 20; ++slot) {
    sim.step();
    ASSERT_TRUE(sim.is_connected())
        << "k=" << GetParam() << " slot=" << slot;
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, CmaConnectivitySweep,
                         ::testing::Values(9u, 16u, 36u, 64u, 100u));

}  // namespace
}  // namespace cps::core

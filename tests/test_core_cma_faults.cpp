// Tests for CMA under fault injection and degraded neighbour knowledge
// (core/cma.hpp + net/fault.hpp + net/link_model.hpp).
#include "core/cma.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "field/analytic_fields.hpp"
#include "field/time_varying.hpp"

namespace cps::core {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

field::StaticTimeField static_env() {
  return field::StaticTimeField(std::make_shared<field::GaussianMixtureField>(
      0.5, std::vector<field::GaussianBump>{{{30.0, 30.0}, 3.0, 8.0},
                                            {{70.0, 60.0}, 2.5, 10.0}}));
}

/// A 3x3 connected grid of nodes with pitch well inside Rc = 10.
std::vector<geo::Vec2> small_grid() {
  std::vector<geo::Vec2> pts;
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < 3; ++i) {
      pts.push_back({40.0 + i * 6.0, 40.0 + j * 6.0});
    }
  }
  return pts;
}

CmaConfig fast_config() {
  CmaConfig cfg;
  cfg.sample_spacing = 1.0;
  return cfg;
}

TEST(CmaFaults, ConfigValidatesNeighborTtl) {
  const auto env = static_env();
  CmaConfig bad = fast_config();
  bad.neighbor_ttl = 0;
  EXPECT_THROW(CmaSimulation(env, kRegion, small_grid(), bad),
               std::invalid_argument);
}

TEST(CmaFaults, ConfigRejectsInfiniteAndNonPositiveParameters) {
  // An infinite length or time passes `x > 0` but reaches the sensing
  // lattice's and the tiling's integer casts.  A bad sensing pitch is
  // refused at construction, not at the first sense.
  const auto env = static_env();
  const double inf = std::numeric_limits<double>::infinity();
  for (double CmaConfig::*field :
       {&CmaConfig::rs, &CmaConfig::rc, &CmaConfig::sample_spacing,
        &CmaConfig::velocity, &CmaConfig::dt, &CmaConfig::force_gain}) {
    CmaConfig bad = fast_config();
    bad.*field = inf;
    EXPECT_THROW(CmaSimulation(env, kRegion, small_grid(), bad),
                 std::invalid_argument);
  }
  for (const double spacing :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    CmaConfig bad = fast_config();
    bad.sample_spacing = spacing;
    EXPECT_THROW(CmaSimulation(env, kRegion, small_grid(), bad),
                 std::invalid_argument);
  }
}

TEST(CmaFaults, ScheduleValidatesNodeIndices) {
  const auto env = static_env();
  CmaSimulation sim(env, kRegion, small_grid(), fast_config());
  net::FaultSchedule bad;
  bad.add_death(0, 99);
  EXPECT_THROW(sim.set_fault_schedule(std::move(bad)), std::invalid_argument);
}

TEST(CmaFaults, EmptyScheduleIsBitIdenticalToBaseline) {
  const auto env = static_env();
  CmaSimulation plain(env, kRegion, small_grid(), fast_config());
  CmaSimulation faulted(env, kRegion, small_grid(), fast_config());
  faulted.set_fault_schedule(net::FaultSchedule{});
  faulted.set_link_model(std::make_unique<net::DiskLink>(fast_config().rc));
  plain.run(10);
  faulted.run(10);
  ASSERT_EQ(plain.positions().size(), faulted.positions().size());
  for (std::size_t i = 0; i < plain.positions().size(); ++i) {
    EXPECT_EQ(plain.positions()[i].x, faulted.positions()[i].x);
    EXPECT_EQ(plain.positions()[i].y, faulted.positions()[i].y);
  }
  EXPECT_EQ(plain.total_broadcasts(), faulted.total_broadcasts());
}

TEST(CmaFaults, DeathFreezesNodeAndShrinksSurvivors) {
  const auto env = static_env();
  CmaSimulation sim(env, kRegion, small_grid(), fast_config());
  net::FaultSchedule schedule;
  schedule.add_death(2, 4);  // Center node dies at slot 2.
  sim.set_fault_schedule(std::move(schedule));

  sim.run(2);  // Slots 0, 1: everyone alive.
  EXPECT_EQ(sim.alive_count(), 9u);
  EXPECT_TRUE(sim.is_alive(4));

  sim.step();  // Slot 2: the death applies before the node moves.
  EXPECT_EQ(sim.alive_count(), 8u);
  EXPECT_FALSE(sim.is_alive(4));
  EXPECT_EQ(sim.deaths_applied(), 1u);

  const geo::Vec2 frozen = sim.positions()[4];
  const double traveled = sim.distance_traveled(4);
  sim.run(5);
  EXPECT_EQ(sim.positions()[4].x, frozen.x);  // Carcass never moves...
  EXPECT_EQ(sim.positions()[4].y, frozen.y);
  EXPECT_EQ(sim.distance_traveled(4), traveled);  // ...or spends energy.
  EXPECT_EQ(sim.alive_positions().size(), 8u);
  EXPECT_EQ(sim.sense_at_nodes().size(), 8u);  // Dead sensors are silent.
}

TEST(CmaFaults, RevivalRejoinsTheProtocol) {
  const auto env = static_env();
  CmaSimulation sim(env, kRegion, small_grid(), fast_config());
  net::FaultSchedule schedule;
  schedule.add_death(1, 0);
  schedule.add_revival(4, 0);
  sim.set_fault_schedule(std::move(schedule));
  sim.run(2);
  EXPECT_FALSE(sim.is_alive(0));
  sim.run(3);  // Slot 4 applies the revival.
  EXPECT_TRUE(sim.is_alive(0));
  EXPECT_EQ(sim.alive_count(), 9u);
  // The revived node hears beacons again within a slot.
  sim.step();
  EXPECT_GT(sim.known_neighbor_count(0), 0u);
}

TEST(CmaFaults, DeterministicUnderChurnAndLossyLinks) {
  const auto env = static_env();
  const auto schedule =
      net::FaultSchedule::random_deaths(9, 0.3, 1, 5, 2024);
  std::vector<std::vector<geo::Vec2>> finals;
  std::vector<std::size_t> alive_counts;
  for (int rep = 0; rep < 2; ++rep) {
    CmaSimulation sim(env, kRegion, small_grid(), fast_config());
    net::GilbertElliottLink::Params p;
    p.loss_bad = 1.0;
    sim.set_link_model(
        std::make_unique<net::GilbertElliottLink>(fast_config().rc, p, 5));
    sim.set_fault_schedule(schedule);
    sim.run(8);
    finals.push_back(sim.positions());
    alive_counts.push_back(sim.alive_count());
  }
  EXPECT_EQ(alive_counts[0], alive_counts[1]);
  for (std::size_t i = 0; i < finals[0].size(); ++i) {
    EXPECT_EQ(finals[0][i].x, finals[1][i].x);
    EXPECT_EQ(finals[0][i].y, finals[1][i].y);
  }
}

TEST(CmaFaults, NeighborTtlCoastsThroughLostBeacons) {
  // Two nodes in range on a clean channel that then fades out
  // completely: with TTL 1 the neighbour vanishes on the first lost
  // beacon, with TTL 4 it survives three more slots.
  const auto env = static_env();
  const std::vector<geo::Vec2> pair{{40.0, 40.0}, {46.0, 40.0}};
  for (const std::size_t ttl : {std::size_t{1}, std::size_t{4}}) {
    CmaConfig cfg = fast_config();
    cfg.neighbor_ttl = ttl;
    cfg.velocity = 0.0;  // Hold positions so only knowledge changes.
    CmaSimulation sim(env, kRegion, pair, cfg);

    sim.step();  // Slot 0: first beacons arrive over the clean default.
    ASSERT_EQ(sim.known_neighbor_count(0), 1u) << "ttl " << ttl;
    // The channel dies: every transmission from here on is lost.
    sim.set_link_model(std::make_unique<net::DiskLink>(cfg.rc, 1.0, 1));
    sim.step();  // Slot 1: beacons lost.
    if (ttl == 1) {
      EXPECT_EQ(sim.known_neighbor_count(0), 0u);
    } else {
      EXPECT_EQ(sim.known_neighbor_count(0), 1u);
      sim.step();  // Slot 2.
      sim.step();  // Slot 3: slot-0 entry still within TTL 4.
      EXPECT_EQ(sim.known_neighbor_count(0), 1u);
      sim.step();  // Slot 4: aged out.
      EXPECT_EQ(sim.known_neighbor_count(0), 0u);
    }
  }
}

TEST(CmaFaults, DeadNeighborAgesOutOfTables) {
  const auto env = static_env();
  const std::vector<geo::Vec2> pair{{40.0, 40.0}, {46.0, 40.0}};
  CmaConfig cfg = fast_config();
  cfg.neighbor_ttl = 3;
  cfg.velocity = 0.0;
  CmaSimulation sim(env, kRegion, pair, cfg);
  net::FaultSchedule schedule;
  schedule.add_death(2, 1);
  sim.set_fault_schedule(std::move(schedule));

  sim.run(2);  // Slots 0-1: both alive, tables warm.
  EXPECT_EQ(sim.known_neighbor_count(0), 1u);
  sim.step();  // Slot 2: node 1 dies; its last beacon is still fresh.
  EXPECT_EQ(sim.known_neighbor_count(0), 1u);
  sim.step();  // Slot 3: still within TTL.
  EXPECT_EQ(sim.known_neighbor_count(0), 1u);
  sim.step();  // Slot 4: the dead neighbour finally ages out.
  EXPECT_EQ(sim.known_neighbor_count(0), 0u);
  EXPECT_EQ(sim.known_neighbor_count(1), 0u);  // Dead nodes know nothing.
}

TEST(CmaFaults, SurvivorConnectivityMetricsIgnoreTheDead) {
  // A 2-node "network" where one node sits far away: killing it makes
  // the survivor graph trivially connected.
  const auto env = static_env();
  const std::vector<geo::Vec2> pts{{10.0, 10.0}, {90.0, 90.0}};
  CmaConfig cfg = fast_config();
  cfg.velocity = 0.0;
  CmaSimulation sim(env, kRegion, pts, cfg);
  EXPECT_FALSE(sim.is_connected());
  EXPECT_EQ(sim.component_count(), 2u);
  EXPECT_DOUBLE_EQ(sim.largest_component_fraction(), 0.5);

  net::FaultSchedule schedule;
  schedule.add_death(0, 1);
  sim.set_fault_schedule(std::move(schedule));
  sim.step();
  EXPECT_TRUE(sim.is_connected());
  EXPECT_EQ(sim.component_count(), 1u);
  EXPECT_DOUBLE_EQ(sim.largest_component_fraction(), 1.0);
}

}  // namespace
}  // namespace cps::core

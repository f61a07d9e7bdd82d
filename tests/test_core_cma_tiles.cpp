// Schedule determinism of the tiled CMA slot loop (core/cma_sharding.hpp).
//
// The tile size is a pure performance knob: positions, learned neighbour
// tables, LCM chase counts, distance accumulators, and the drop-reason
// taxonomy must be bit-identical to a single-tile run at one thread —
// the degenerate tiling whose matching is the all-pairs in-range set,
// itself checked against brute force below — per slot, at every thread
// count, for every tile size and link radius, under every link model,
// and across faults and tile migrations.  Any divergence is a bug in the
// matching or the fold order, never an acceptable approximation.
#include "core/cma.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cma_sharding.hpp"
#include "field/analytic_fields.hpp"
#include "field/time_varying.hpp"
#include "numerics/rng.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::core {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

field::StaticTimeField static_env() {
  return field::StaticTimeField(std::make_shared<field::GaussianMixtureField>(
      0.5, std::vector<field::GaussianBump>{{{30.0, 30.0}, 3.0, 8.0},
                                            {{70.0, 60.0}, 2.5, 10.0}}));
}

/// Random but reproducible scatter over the whole region, so nodes span
/// many tiles and several sit right on tile boundaries.
std::vector<geo::Vec2> scatter(std::size_t n, std::uint64_t seed) {
  num::Rng rng(seed);
  std::vector<geo::Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(kRegion.x0, kRegion.x1),
                   rng.uniform(kRegion.y0, kRegion.y1)});
  }
  return pts;
}

CmaConfig base_config() {
  CmaConfig cfg;
  cfg.sample_spacing = 2.0;  // Coarse lattice: keep the fuzz sweeps fast.
  cfg.lcm = LcmMode::kPaper;
  return cfg;
}

enum class Link { kDiskLossless, kDiskLossy, kDistance, kGilbert };

std::unique_ptr<net::LinkModel> make_link(Link kind, double rc) {
  switch (kind) {
    case Link::kDiskLossless:
      return std::make_unique<net::DiskLink>(rc, 0.0, 17);
    case Link::kDiskLossy:
      return std::make_unique<net::DiskLink>(rc, 0.3, 17);
    case Link::kDistance:
      return std::make_unique<net::DistanceLossLink>(rc, 0.5, 2.0, 17);
    case Link::kGilbert:
      return std::make_unique<net::GilbertElliottLink>(
          rc, net::GilbertElliottLink::Params{}, 17);
  }
  return nullptr;
}

/// Delivery + drop-taxonomy counters that must be identical for every
/// tiling: each sender's receiver list is the same in-range set, so even
/// the transmit attempts agree.
const char* const kEquivalentCounters[] = {
    "net.bus.messages_sent",       "net.bus.transmit_attempts",
    "net.bus.deliveries",          "net.bus.delivery_failures",
    "net.bus.drops_total",         "net.bus.drop.dead_sender",
    "net.bus.drop.dead_receiver",  "net.bus.drop.out_of_range",
    "net.bus.drop.link_loss_draw", "net.bus.drop.ttl_expired",
};

std::map<std::string, std::uint64_t> counter_snapshot() {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kEquivalentCounters) {
    out[name] = obs::counter(name).value();
  }
  return out;
}

struct RunResult {
  std::vector<std::vector<geo::Vec2>> positions_per_slot;
  std::vector<std::size_t> chases_per_slot;
  std::vector<double> max_move_per_slot;
  std::vector<std::vector<std::size_t>> known_per_slot;
  double total_distance = 0.0;
  std::size_t broadcasts = 0;
  std::map<std::string, std::uint64_t> counters;
};

struct RunSpec {
  std::size_t nodes = 40;
  std::size_t slots = 12;
  std::uint64_t seed = 5;
  Link link = Link::kDiskLossy;
  LcmMode lcm = LcmMode::kPaper;
  std::size_t ttl = 1;
  double tile_size = 0.0;
  double link_radius = 10.0;  ///< Installed link; CmaConfig::rc stays 10.
  bool faults = false;
  std::size_t threads = 1;
};

RunResult run_cma(const RunSpec& spec) {
  par::set_thread_count(spec.threads);
  obs::set_enabled(true);
  obs::registry().reset();
  const auto env = static_env();
  CmaConfig cfg = base_config();
  cfg.lcm = spec.lcm;
  cfg.neighbor_ttl = spec.ttl;
  cfg.tile_size = spec.tile_size;
  CmaSimulation sim(env, kRegion, scatter(spec.nodes, spec.seed), cfg);
  sim.set_link_model(make_link(spec.link, spec.link_radius));
  if (spec.faults) {
    net::FaultSchedule schedule;
    schedule.add_death(1, 2);
    schedule.add_death(3, spec.nodes / 2);
    schedule.add_death(5, spec.nodes - 1);
    schedule.add_revival(7, 2);
    schedule.add_revival(9, spec.nodes / 2);
    sim.set_fault_schedule(std::move(schedule));
  }
  RunResult result;
  for (std::size_t s = 0; s < spec.slots; ++s) {
    sim.step();
    result.positions_per_slot.push_back(sim.positions());
    result.chases_per_slot.push_back(sim.last_chase_count());
    result.max_move_per_slot.push_back(sim.last_max_displacement());
    std::vector<std::size_t> known(spec.nodes);
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      known[i] = sim.known_neighbor_count(i);
    }
    result.known_per_slot.push_back(std::move(known));
  }
  result.total_distance = sim.total_distance_traveled();
  result.broadcasts = sim.total_broadcasts();
  result.counters = counter_snapshot();
  obs::set_enabled(false);
  par::set_thread_count(0);
  return result;
}

/// Bitwise comparison of a run against the single-tile oracle with the
/// same spec (the oracle always runs at one thread).
void expect_equivalent(const RunSpec& spec) {
  RunSpec oracle_spec = spec;
  oracle_spec.threads = 1;
  oracle_spec.tile_size = 1000.0;  // One tile covers the whole region.
  const RunResult oracle = run_cma(oracle_spec);
  const RunResult tiled = run_cma(spec);
  ASSERT_EQ(oracle.positions_per_slot.size(), tiled.positions_per_slot.size());
  for (std::size_t s = 0; s < oracle.positions_per_slot.size(); ++s) {
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      EXPECT_EQ(oracle.positions_per_slot[s][i].x,
                tiled.positions_per_slot[s][i].x)
          << "slot " << s << " node " << i;
      EXPECT_EQ(oracle.positions_per_slot[s][i].y,
                tiled.positions_per_slot[s][i].y)
          << "slot " << s << " node " << i;
    }
    EXPECT_EQ(oracle.chases_per_slot[s], tiled.chases_per_slot[s])
        << "slot " << s;
    EXPECT_EQ(oracle.max_move_per_slot[s], tiled.max_move_per_slot[s])
        << "slot " << s;
    EXPECT_EQ(oracle.known_per_slot[s], tiled.known_per_slot[s])
        << "slot " << s;
  }
  EXPECT_EQ(oracle.total_distance, tiled.total_distance);
  EXPECT_EQ(oracle.broadcasts, tiled.broadcasts);
  EXPECT_EQ(oracle.counters, tiled.counters);
}

TEST(CmaTiles, ShardGridValidatesParameters) {
  EXPECT_THROW(ShardGrid(kRegion, 0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(ShardGrid(kRegion, 20.0, -1.0), std::invalid_argument);
}

TEST(CmaTiles, ShardGridRejectsMoreTilesThanItsIdsHold) {
  // Tile ids are uint32_t: 1e5 x 1e5 tiles, or the ~1e302 x 1e302 a tiny
  // ghost width asks for, must be refused before any integer cast.
  EXPECT_THROW(ShardGrid(kRegion, 1e-3, 1e-3), std::invalid_argument);
  EXPECT_THROW(ShardGrid(kRegion, 1e-300, 1e-300), std::invalid_argument);
}

TEST(CmaTiles, ShardGridRejectsRadiusBeyondGhost) {
  ShardGrid grid(kRegion, 20.0, 5.0);
  const std::vector<geo::Vec2> pts = scatter(8, 4);
  const std::vector<char> alive(pts.size(), 1);
  net::DiskLink wide(8.0, 0.0, 1);  // radius 8 > ghost 5
  EXPECT_THROW(grid.prepare(pts, alive, wide), std::logic_error);
}

TEST(CmaTiles, MatchingEqualsBruteForceInRangeLists) {
  // The receiver lists are the schedule's only input to the bus: for
  // every tiling they must be exactly the living in-range nodes,
  // ascending.  300 nodes over big tiles push candidate sets past the
  // hash cutoff; small tiles keep them on the plain scan.
  const std::vector<geo::Vec2> pts = scatter(300, 7);
  std::vector<char> alive(pts.size(), 1);
  for (std::size_t i = 0; i < pts.size(); i += 13) alive[i] = 0;
  const net::DiskLink link(10.0, 0.0, 1);
  for (const double tile : {10.0, 25.0, 50.0, 1000.0}) {
    SCOPED_TRACE("tile=" + std::to_string(tile));
    ShardGrid grid(kRegion, tile, 10.0);
    grid.prepare(pts, alive, link);
    for (std::size_t from = 0; from < pts.size(); ++from) {
      std::vector<net::NodeId> want;
      for (std::size_t to = 0; alive[from] && to < pts.size(); ++to) {
        if (to != from && alive[to] && link.in_range(pts[from], pts[to])) {
          want.push_back(to);
        }
      }
      const auto got = grid.receivers_of(from);
      EXPECT_EQ(std::vector<net::NodeId>(got.begin(), got.end()), want)
          << "sender " << from;
    }
  }
}

TEST(CmaTiles, DefaultTilingMatchesSingleTile) {
  expect_equivalent(RunSpec{});
}

TEST(CmaTiles, TileSizeSweep) {
  for (const double tile : {12.0, 25.0, 50.0}) {
    RunSpec spec;
    spec.tile_size = tile;
    spec.seed = 11 + static_cast<std::uint64_t>(tile);
    expect_equivalent(spec);
  }
}

TEST(CmaTiles, LinkRadiusSweep) {
  // The ghost width follows the installed link: a link wider than
  // CmaConfig::rc widens the ring (and the default tiles) instead of
  // failing.
  for (const double radius : {10.0, 14.0, 30.0}) {
    RunSpec spec;
    spec.link_radius = radius;
    spec.seed = 23 + static_cast<std::uint64_t>(radius);
    expect_equivalent(spec);
  }
}

TEST(CmaTiles, GhostWidthFollowsTheInstalledLink) {
  const auto env = static_env();
  CmaSimulation sim(env, kRegion, scatter(10, 3), base_config());
  EXPECT_EQ(sim.shard(), nullptr);  // Built by the first step().
  sim.step();
  ASSERT_NE(sim.shard(), nullptr);
  EXPECT_EQ(sim.shard()->ghost(), 10.0);  // max(rs = 5, rc = 10).
  sim.set_link_model(std::make_unique<net::DiskLink>(18.0, 0.0, 1));
  sim.step();
  EXPECT_EQ(sim.shard()->ghost(), 18.0);
}

TEST(CmaTiles, ThreadCountSweep) {
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    RunSpec spec;
    spec.threads = threads;
    spec.seed = 31 + threads;
    expect_equivalent(spec);
  }
}

TEST(CmaTiles, LinkModelSweep) {
  for (const Link link : {Link::kDiskLossless, Link::kDiskLossy,
                          Link::kDistance, Link::kGilbert}) {
    RunSpec spec;
    spec.link = link;
    spec.seed = 41 + static_cast<std::uint64_t>(link);
    spec.threads = 2;
    expect_equivalent(spec);
  }
}

TEST(CmaTiles, StrictLcmAndTtlSweep) {
  for (const std::size_t ttl : {std::size_t{1}, std::size_t{3}}) {
    RunSpec spec;
    spec.lcm = LcmMode::kStrict;
    spec.ttl = ttl;
    spec.seed = 53 + ttl;
    spec.threads = 4;
    expect_equivalent(spec);
  }
}

TEST(CmaTiles, FaultsWithBoundaryDeaths) {
  for (const std::size_t threads : {1u, 4u}) {
    RunSpec spec;
    spec.faults = true;
    spec.threads = threads;
    spec.slots = 14;
    spec.seed = 61 + threads;
    expect_equivalent(spec);
  }
}

TEST(CmaTiles, RandomizedFuzz) {
  num::Rng rng(97);
  for (int round = 0; round < 6; ++round) {
    RunSpec spec;
    spec.nodes = 20 + static_cast<std::size_t>(rng.uniform(0.0, 40.0));
    spec.slots = 6 + static_cast<std::size_t>(rng.uniform(0.0, 8.0));
    spec.seed = static_cast<std::uint64_t>(rng.uniform(1.0, 1e6));
    spec.link = static_cast<Link>(
        static_cast<int>(rng.uniform(0.0, 3.999)));
    spec.lcm = rng.bernoulli(0.5) ? LcmMode::kPaper : LcmMode::kStrict;
    spec.ttl = rng.bernoulli(0.5) ? 1 : 2;
    spec.tile_size = rng.bernoulli(0.5) ? 0.0 : rng.uniform(10.0, 60.0);
    spec.threads = 1 + static_cast<std::size_t>(rng.uniform(0.0, 3.999));
    spec.faults = rng.bernoulli(0.5);
    expect_equivalent(spec);
  }
}

TEST(CmaTiles, NodesMigrateAcrossTilesMidRun) {
  // A long, force-driven run over the default tiling must show tile
  // reassignments; migration is just positional re-ownership, so the
  // equivalence sweep above already covers its correctness — here we pin
  // that it actually happens (the test would be vacuous otherwise).
  par::set_thread_count(2);
  obs::set_enabled(true);
  obs::registry().reset();
  const auto env = static_env();
  CmaConfig cfg = base_config();
  cfg.tile_size = 12.0;  // Small tiles: short hop to the next one.
  CmaSimulation sim(env, kRegion, scatter(60, 71), cfg);
  sim.run(30);
#if defined(CPS_OBS_ENABLED)
  EXPECT_GT(obs::counter("core.cma.shard.migrations").value(), 0u);
#endif
  ASSERT_NE(sim.shard(), nullptr);
  EXPECT_GT(sim.shard()->tile_count(), 1u);
  obs::set_enabled(false);
  par::set_thread_count(0);
}

TEST(CmaTiles, DenseTilesMatchByPlainScan) {
  // 300 nodes over 2x2 big tiles gives every tile a candidate set of
  // hundreds, most of them out of range of any one sender, so each
  // sender's scan must skip far more candidates than it keeps and still
  // emit its receivers in ascending id order.
  RunSpec spec;
  spec.nodes = 300;
  spec.slots = 4;
  spec.tile_size = 50.0;
  spec.threads = 2;
  spec.seed = 101;
  expect_equivalent(spec);
}

}  // namespace
}  // namespace cps::core

// Tests for the message drop-reason taxonomy (net/link_model.hpp
// count_drops + MessageBus per-message accounting + CMA neighbour-table
// aging): per-reason counters must decompose the aggregate exactly and
// line up with the legacy aggregate names.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cma.hpp"
#include "field/analytic_fields.hpp"
#include "field/time_varying.hpp"
#include "net/fault.hpp"
#include "net/link_model.hpp"
#include "net/message_bus.hpp"
#include "obs/obs.hpp"
#include "oracles.hpp"

namespace cps::net {
namespace {

using geo::Vec2;

std::uint64_t cval(const char* name) { return obs::counter(name).value(); }

/// The five per-reason counters plus the aggregates they must reconcile
/// with, read from the process registry.
struct DropCounts {
  std::uint64_t dead_sender;
  std::uint64_t dead_receiver;
  std::uint64_t out_of_range;
  std::uint64_t link_loss_draw;
  std::uint64_t ttl_expired;
  std::uint64_t total;
  std::uint64_t legacy_failures;
  std::uint64_t legacy_dead_broadcasts;

  static DropCounts read() {
    return DropCounts{cval("net.bus.drop.dead_sender"),
                      cval("net.bus.drop.dead_receiver"),
                      cval("net.bus.drop.out_of_range"),
                      cval("net.bus.drop.link_loss_draw"),
                      cval("net.bus.drop.ttl_expired"),
                      cval("net.bus.drops_total"),
                      cval("net.bus.delivery_failures"),
                      cval("net.bus.dead_broadcasts")};
  }

  std::uint64_t reason_sum() const {
    return dead_sender + dead_receiver + out_of_range + link_loss_draw +
           ttl_expired;
  }
};

/// Arms obs recording and zeroes the registry for one test.
struct ObsScope {
  ObsScope() {
    obs::set_enabled(true);
    obs::registry().reset();
  }
  ~ObsScope() { obs::set_enabled(false); }
};

TEST(DropReason, NamesAreStable) {
  EXPECT_STREQ(drop_reason_name(DropReason::kDeadSender), "dead_sender");
  EXPECT_STREQ(drop_reason_name(DropReason::kDeadReceiver), "dead_receiver");
  EXPECT_STREQ(drop_reason_name(DropReason::kOutOfRange), "out_of_range");
  EXPECT_STREQ(drop_reason_name(DropReason::kLinkLossDraw),
               "link_loss_draw");
  EXPECT_STREQ(drop_reason_name(DropReason::kTtlExpired), "ttl_expired");
}

#if defined(CPS_OBS_ENABLED)

/// 6 nodes: 0..2 clustered (mutually in range of Rc = 10), 3 far away,
/// 4 and 5 clustered with each other but out of range of the rest.
MessageBus<int> make_bus(double loss) {
  MessageBus<int> bus(6, std::make_unique<DiskLink>(10.0, loss, 42));
  bus.set_position(0, {10.0, 10.0});
  bus.set_position(1, {14.0, 10.0});
  bus.set_position(2, {10.0, 14.0});
  bus.set_position(3, {80.0, 80.0});
  bus.set_position(4, {40.0, 40.0});
  bus.set_position(5, {44.0, 40.0});
  return bus;
}

// One slot with every reason except ttl_expired represented; the reasons
// must sum to the aggregate and line up with the legacy counters.
void run_mixed_slot() {
  MessageBus<int> bus = make_bus(/*loss=*/0.5);
  bus.set_alive(2, false);       // A dead receiver for node 0/1 traffic.
  bus.broadcast(2, 99);          // Dead at broadcast: dead_sender.
  bus.broadcast(0, 1);           // Reaches 1; 2 dead, 3/4/5 out of range.
  bus.broadcast(5, 2);           // Reaches 4 only.
  bus.broadcast(3, 3);           // Isolated: everything out of range.
  bus.set_alive(3, false);       // Dies with its message in flight.
  bus.step(oracle::in_range_receivers(bus));
}

TEST(DropCounters, ReasonsDecomposeTotalExactly) {
  ObsScope obs;
  run_mixed_slot();
  const DropCounts c = DropCounts::read();
  // alive_now = 4 (nodes 0, 1, 4, 5); two alive-sender messages from the
  // cluster senders plus... node 3's message died with it.
  EXPECT_EQ(c.dead_sender, 2u);  // Dead broadcast + died in flight.
  EXPECT_EQ(c.dead_receiver, 4u);  // 2 dead nodes x 2 delivered messages.
  EXPECT_GT(c.out_of_range, 0u);
  EXPECT_EQ(c.ttl_expired, 0u);  // No neighbour tables on a raw bus.
  EXPECT_EQ(c.reason_sum(), c.total);
  EXPECT_EQ(c.link_loss_draw, c.legacy_failures);
  EXPECT_EQ(c.dead_sender,
            c.legacy_dead_broadcasts + 1u);  // +1 died-in-flight.
}

TEST(DropCounters, LossFreeChannelDrawsNothing) {
  ObsScope obs;
  MessageBus<int> bus = make_bus(/*loss=*/0.0);
  for (NodeId from = 0; from < bus.node_count(); ++from) {
    bus.broadcast(from, static_cast<int>(from));
  }
  bus.step(oracle::in_range_receivers(bus));
  const DropCounts c = DropCounts::read();
  EXPECT_EQ(c.link_loss_draw, 0u);
  EXPECT_EQ(c.dead_sender, 0u);
  EXPECT_EQ(c.dead_receiver, 0u);
  // 6 senders x 5 potential receivers, minus the in-range deliveries.
  EXPECT_EQ(c.out_of_range, 30u - cval("net.bus.deliveries"));
  EXPECT_EQ(c.reason_sum(), c.total);
}

// A CMA run under a fault schedule exercises every reason, including
// ttl_expired from the beacon-learned neighbour tables aging out dead
// neighbours; the decomposition must still be exact.
TEST(DropCounters, CmaFaultRunDecomposesExactly) {
  ObsScope obs;
  const field::StaticTimeField env(
      std::make_shared<field::GaussianMixtureField>(
          0.5, std::vector<field::GaussianBump>{{{30.0, 30.0}, 3.0, 8.0},
                                                {{70.0, 60.0}, 2.5, 10.0}}));
  std::vector<Vec2> nodes;
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 4; ++i) {
      nodes.push_back({35.0 + i * 6.0, 35.0 + j * 6.0});
    }
  }
  core::CmaConfig cfg;
  cfg.sample_spacing = 1.0;
  cfg.neighbor_ttl = 3;  // Entries coast, then age out: ttl_expired > 0.
  core::CmaSimulation sim(env, num::Rect{0.0, 0.0, 100.0, 100.0}, nodes,
                          cfg);
  sim.set_fault_schedule(
      FaultSchedule::random_deaths(nodes.size(), 0.4, 2, 10, 7));
  sim.set_link_model(std::make_unique<DiskLink>(cfg.rc, 0.1, 7));
  sim.run(15);

  const DropCounts c = DropCounts::read();
  EXPECT_EQ(c.reason_sum(), c.total);
  EXPECT_EQ(c.link_loss_draw, c.legacy_failures);
  EXPECT_GT(c.total, 0u);
  EXPECT_GT(c.ttl_expired, 0u);
  EXPECT_GT(c.dead_receiver, 0u);
}

#endif  // CPS_OBS_ENABLED

}  // namespace
}  // namespace cps::net

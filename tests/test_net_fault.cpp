// Tests for fault injection and channel models (net/fault.hpp,
// net/link_model.hpp) and the MessageBus liveness/accounting semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "net/link_model.hpp"
#include "net/message_bus.hpp"
#include "numerics/rng.hpp"
#include "obs/obs.hpp"
#include "oracles.hpp"

namespace cps::net {
namespace {

using geo::Vec2;

// --- FaultSchedule -------------------------------------------------------

TEST(FaultSchedule, EventsSortedAndQueriedBySlot) {
  FaultSchedule s;
  s.add_death(7, 2);
  s.add_death(3, 0);
  s.add_revival(7, 1);
  s.add_death(7, 1);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.death_count(), 3u);
  EXPECT_EQ(s.last_slot(), 7u);

  ASSERT_EQ(s.events_at(3).size(), 1u);
  EXPECT_EQ(s.events_at(3)[0].node, 0u);
  EXPECT_TRUE(s.events_at(5).empty());

  const auto at7 = s.events_at(7);
  ASSERT_EQ(at7.size(), 3u);
  // Node order, deaths before revivals for the same node.
  EXPECT_EQ(at7[0].node, 1u);
  EXPECT_EQ(at7[0].kind, FaultKind::kDeath);
  EXPECT_EQ(at7[1].node, 1u);
  EXPECT_EQ(at7[1].kind, FaultKind::kRevival);
  EXPECT_EQ(at7[2].node, 2u);
}

TEST(FaultSchedule, EmptySchedule) {
  const FaultSchedule s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.death_count(), 0u);
  EXPECT_EQ(s.last_slot(), 0u);
  EXPECT_TRUE(s.events_at(0).empty());
}

TEST(FaultSchedule, RandomDeathsDeterministicPerSeed) {
  const auto a = FaultSchedule::random_deaths(50, 0.3, 5, 20, 42);
  const auto b = FaultSchedule::random_deaths(50, 0.3, 5, 20, 42);
  const auto c = FaultSchedule::random_deaths(50, 0.3, 5, 20, 43);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].slot, b.events()[i].slot);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
  }
  // A different seed yields a different schedule (overwhelmingly likely).
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.events()[i].slot != c.events()[i].slot ||
              a.events()[i].node != c.events()[i].node;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, RandomDeathsRespectsWindowAndBounds) {
  const auto s = FaultSchedule::random_deaths(200, 0.5, 10, 30, 7);
  EXPECT_GT(s.death_count(), 50u);   // ~100 expected.
  EXPECT_LT(s.death_count(), 150u);
  for (const auto& e : s.events()) {
    EXPECT_GE(e.slot, 10u);
    EXPECT_LE(e.slot, 30u);
    EXPECT_LT(e.node, 200u);
    EXPECT_EQ(e.kind, FaultKind::kDeath);
  }
  EXPECT_EQ(FaultSchedule::random_deaths(100, 0.0, 0, 10, 1).size(), 0u);
  EXPECT_EQ(FaultSchedule::random_deaths(100, 1.0, 0, 10, 1).size(), 100u);
  EXPECT_THROW(FaultSchedule::random_deaths(10, 1.5, 0, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::random_deaths(
                   10, std::numeric_limits<double>::quiet_NaN(), 0, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::random_deaths(10, 0.5, 10, 5, 1),
               std::invalid_argument);
}

// --- LinkModel implementations -------------------------------------------

TEST(DiskLink, MatchesDiskRadioBitForBit) {
  // The LinkModel default must reproduce the original radio exactly:
  // same seed, same attempt sequence, same outcomes.
  DiskRadio radio(10.0, 0.3, 99);
  DiskLink link(10.0, 0.3, 99);
  for (int i = 0; i < 5000; ++i) {
    const Vec2 from{0.0, 0.0};
    const Vec2 to{static_cast<double>(i % 12), 0.0};  // Some out of range.
    ASSERT_EQ(radio.transmit(from, to), link.transmit(0, 1, from, to));
  }
}

TEST(DiskLink, CloneForksIndependentState) {
  DiskLink link(10.0, 0.5, 3);
  auto copy = link.clone();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(link.transmit(0, 1, {0.0, 0.0}, {1.0, 0.0}),
              copy->transmit(0, 1, {0.0, 0.0}, {1.0, 0.0}));
  }
}

TEST(DistanceLossLink, Validation) {
  EXPECT_THROW(DistanceLossLink(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(DistanceLossLink(10.0, 1.5), std::invalid_argument);
  EXPECT_THROW(DistanceLossLink(10.0, 0.5, 0.0), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(DistanceLossLink(nan, 0.5), std::invalid_argument);
  EXPECT_THROW(DistanceLossLink(10.0, nan), std::invalid_argument);
  EXPECT_THROW(DistanceLossLink(10.0, 0.5, nan), std::invalid_argument);
}

TEST(DistanceLossLink, LossGrowsWithDistance) {
  const DistanceLossLink link(10.0, 0.4, 2.0, 1);
  EXPECT_DOUBLE_EQ(link.loss_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(link.loss_at(10.0), 0.4);
  EXPECT_LT(link.loss_at(3.0), link.loss_at(7.0));
  EXPECT_DOUBLE_EQ(link.loss_at(50.0), 0.4);  // Clamped past the edge.
}

TEST(DistanceLossLink, DeliveryRateTracksDistance) {
  DistanceLossLink link(10.0, 1.0, 2.0, 5);
  int near = 0;
  int far = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    near += link.transmit(0, 1, {0.0, 0.0}, {2.0, 0.0}) ? 1 : 0;
    far += link.transmit(0, 1, {0.0, 0.0}, {9.5, 0.0}) ? 1 : 0;
  }
  // p(2m) = 0.04, p(9.5m) ~ 0.90.
  EXPECT_NEAR(near / static_cast<double>(n), 0.96, 0.03);
  EXPECT_NEAR(far / static_cast<double>(n), 0.10, 0.03);
  EXPECT_FALSE(link.transmit(0, 1, {0.0, 0.0}, {10.5, 0.0}));
}

TEST(GilbertElliottLink, Validation) {
  GilbertElliottLink::Params p;
  EXPECT_THROW(GilbertElliottLink(0.0, p), std::invalid_argument);
  p.loss_bad = 1.5;
  EXPECT_THROW(GilbertElliottLink(10.0, p), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(GilbertElliottLink(nan, GilbertElliottLink::Params{}),
               std::invalid_argument);
  for (double GilbertElliottLink::Params::*field :
       {&GilbertElliottLink::Params::p_good_to_bad,
        &GilbertElliottLink::Params::p_bad_to_good,
        &GilbertElliottLink::Params::loss_good,
        &GilbertElliottLink::Params::loss_bad}) {
    GilbertElliottLink::Params q;
    q.*field = nan;
    EXPECT_THROW(GilbertElliottLink(10.0, q), std::invalid_argument);
  }
}

TEST(GilbertElliottLink, LossesComeInBursts) {
  // With slow state transitions and extreme per-state loss rates, the
  // outcome sequence must be far more "runny" than an i.i.d. channel of
  // the same average rate: count alternations between success and loss.
  GilbertElliottLink::Params p;
  p.p_good_to_bad = 0.02;
  p.p_bad_to_good = 0.02;
  p.loss_good = 0.0;
  p.loss_bad = 1.0;
  GilbertElliottLink link(10.0, p, 11);
  const int n = 4000;
  int losses = 0;
  int alternations = 0;
  bool last = true;
  for (int i = 0; i < n; ++i) {
    const bool ok = link.transmit(0, 1, {0.0, 0.0}, {1.0, 0.0});
    losses += ok ? 0 : 1;
    if (i > 0 && ok != last) ++alternations;
    last = ok;
  }
  ASSERT_GT(losses, n / 10);       // The bad state is actually visited.
  ASSERT_LT(losses, 9 * n / 10);   // ... and left again.
  // An i.i.d. channel with this loss rate alternates ~2*p*(1-p) per
  // attempt (>= 720 expected alternations at worst-case p=0.5 would be
  // ~2000; even at p=0.2 it is ~1280).  The Markov chain flips state
  // only ~2% of the time, so alternations stay in the low hundreds.
  EXPECT_LT(alternations, 400);
}

TEST(GilbertElliottLink, PerLinkStateIsIndependent) {
  GilbertElliottLink::Params p;
  p.p_good_to_bad = 1.0;  // First attempt on any link fades it...
  p.p_bad_to_good = 0.0;  // ...forever.
  p.loss_good = 0.0;
  p.loss_bad = 1.0;
  GilbertElliottLink link(10.0, p, 2);
  EXPECT_FALSE(link.transmit(0, 1, {0.0, 0.0}, {1.0, 0.0}));
  EXPECT_TRUE(link.link_is_bad(0, 1));
  EXPECT_FALSE(link.link_is_bad(1, 0));  // The reverse link is untouched.
  EXPECT_FALSE(link.link_is_bad(2, 3));
}

TEST(GilbertElliottLink, MatchesMapReferenceThroughCloneOverRandomTransmits) {
  // Fast transitions and distinct per-state losses, so the outcome of each
  // attempt depends on its link's state.
  GilbertElliottLink::Params p;
  p.p_good_to_bad = 0.3;
  p.p_bad_to_good = 0.4;
  p.loss_good = 0.1;
  p.loss_bad = 0.8;
  GilbertElliottLink link(10.0, p, 77);
  oracle::MapGilbertElliott ref(10.0, p, 77);
  std::unique_ptr<LinkModel> copy;
  oracle::MapGilbertElliott copy_ref = ref;

  // Ids include both 32-bit halves' extremes, so a packing that dropped or
  // mixed bits would alias links these pairs keep apart.
  const std::vector<NodeId> ids{0, 1, 2, 3, 5, 8, 13, 21, 34, 55,
                                (NodeId{1} << 31), 0xFFFFFFFFu};
  num::Rng draw(2024);
  std::vector<std::pair<NodeId, NodeId>> touched;
  std::size_t in_range = 0;
  const int n = 12000;
  for (int i = 0; i < n; ++i) {
    if (i == n / 2) {
      copy = link.clone();
      copy_ref = ref;
    }
    const auto pick = [&] {
      return ids[static_cast<std::size_t>(
          draw.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
    };
    const NodeId from = pick();
    const NodeId to = pick();
    // Endpoints 0-20 m apart on each axis: a mix of in- and out-of-range.
    const geo::Vec2 a{draw.uniform(0.0, 20.0), draw.uniform(0.0, 20.0)};
    const geo::Vec2 b{draw.uniform(0.0, 20.0), draw.uniform(0.0, 20.0)};
    in_range += link.in_range(a, b) ? 1 : 0;
    touched.emplace_back(from, to);
    ASSERT_EQ(link.transmit(from, to, a, b), ref.transmit(from, to, a, b))
        << "attempt " << i;
    if (copy != nullptr) {
      ASSERT_EQ(copy->transmit(to, from, b, a),
                copy_ref.transmit(to, from, b, a))
          << "clone attempt " << i;
    }
  }
  EXPECT_GT(in_range, static_cast<std::size_t>(n) / 4);
  EXPECT_LT(in_range, static_cast<std::size_t>(3 * n) / 4);

  const auto& cloned = dynamic_cast<const GilbertElliottLink&>(*copy);
  std::size_t bad = 0;
  for (const auto& [from, to] : touched) {
    ASSERT_EQ(link.link_is_bad(from, to), ref.link_is_bad(from, to));
    ASSERT_EQ(cloned.link_is_bad(from, to), copy_ref.link_is_bad(from, to));
    ASSERT_EQ(cloned.link_is_bad(to, from), copy_ref.link_is_bad(to, from));
    bad += link.link_is_bad(from, to) ? 1 : 0;
  }
  EXPECT_GT(bad, 0u);  // Both states are held at the end.
  EXPECT_LT(bad, touched.size());
  // An id wider than 32 bits never got state: its link is good.
  EXPECT_FALSE(link.link_is_bad(NodeId{1} << 40, 0));
}

// --- MessageBus liveness -------------------------------------------------

TEST(MessageBus, DeadNodesNeitherSendNorReceive) {
  MessageBus<int> bus(3, DiskRadio(10.0));
  bus.set_position(0, {0.0, 0.0});
  bus.set_position(1, {5.0, 0.0});
  bus.set_position(2, {5.0, 5.0});
  EXPECT_EQ(bus.alive_count(), 3u);
  bus.set_alive(1, false);
  EXPECT_FALSE(bus.alive(1));
  EXPECT_EQ(bus.alive_count(), 2u);

  bus.broadcast(0, 10);
  bus.broadcast(1, 20);  // Dropped: dead sender.
  bus.step(oracle::in_range_receivers(bus));
  EXPECT_TRUE(bus.inbox(1).empty());          // Dead receiver.
  ASSERT_EQ(bus.inbox(2).size(), 1u);         // Only node 0's message.
  EXPECT_EQ(bus.inbox(2)[0].from, 0u);
  EXPECT_EQ(bus.total_broadcasts(), 1u);      // Dead sends don't count.
}

TEST(MessageBus, DeathBetweenBroadcastAndStepLosesTheMessage) {
  MessageBus<int> bus(2, DiskRadio(10.0));
  bus.set_position(0, {0.0, 0.0});
  bus.set_position(1, {5.0, 0.0});
  bus.broadcast(0, 7);
  bus.set_alive(0, false);  // Dies with the message in flight.
  bus.step(oracle::in_range_receivers(bus));
  EXPECT_TRUE(bus.inbox(1).empty());
}

TEST(MessageBus, RevivalRestoresDelivery) {
  MessageBus<int> bus(2, DiskRadio(10.0));
  bus.set_position(0, {0.0, 0.0});
  bus.set_position(1, {5.0, 0.0});
  bus.set_alive(1, false);
  bus.broadcast(0, 1);
  bus.step(oracle::in_range_receivers(bus));
  EXPECT_TRUE(bus.inbox(1).empty());
  bus.set_alive(1, true);
  bus.broadcast(0, 2);
  bus.step(oracle::in_range_receivers(bus));
  ASSERT_EQ(bus.inbox(1).size(), 1u);
  EXPECT_EQ(bus.inbox(1)[0].message, 2);
}

TEST(MessageBus, SetAliveOutOfRangeThrows) {
  MessageBus<int> bus(2, DiskRadio(10.0));
  EXPECT_THROW(bus.set_alive(2, false), std::out_of_range);
  EXPECT_THROW(bus.alive(2), std::out_of_range);
}

TEST(MessageBus, CustomLinkModelDrivesDelivery) {
  GilbertElliottLink::Params p;
  p.p_good_to_bad = 1.0;
  p.p_bad_to_good = 0.0;
  p.loss_good = 0.0;
  p.loss_bad = 1.0;
  MessageBus<int> bus(2, std::make_unique<GilbertElliottLink>(10.0, p, 1));
  bus.set_position(0, {0.0, 0.0});
  bus.set_position(1, {5.0, 0.0});
  bus.broadcast(0, 1);
  bus.step(oracle::in_range_receivers(bus));
  EXPECT_TRUE(bus.inbox(1).empty());  // Link faded on first use.
  EXPECT_THROW(MessageBus<int>(2, std::unique_ptr<LinkModel>{}),
               std::invalid_argument);
}

#if defined(CPS_OBS_ENABLED)
TEST(MessageBus, DeliveryAndFailureCountersAccountForEveryAttempt) {
  // Under a lossy radio every in-range attempt is either a delivery or a
  // delivery failure — the obs counters must balance exactly.
  obs::registry().reset();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& deliveries = obs::counter("net.bus.deliveries");
  auto& failures = obs::counter("net.bus.delivery_failures");
  const std::uint64_t deliveries_before = deliveries.value();
  const std::uint64_t failures_before = failures.value();

  MessageBus<int> bus(3, DiskRadio(10.0, 0.5, 77));
  bus.set_position(0, {0.0, 0.0});
  bus.set_position(1, {5.0, 0.0});   // In range of 0.
  bus.set_position(2, {50.0, 0.0});  // Out of range of both.
  const int rounds = 500;
  std::size_t received = 0;
  for (int i = 0; i < rounds; ++i) {
    bus.broadcast(0, i);
    bus.step(oracle::in_range_receivers(bus));
    received += bus.inbox(1).size();
  }
  obs::set_enabled(was_enabled);

  const std::uint64_t delivered = deliveries.value() - deliveries_before;
  const std::uint64_t failed = failures.value() - failures_before;
  EXPECT_EQ(delivered, received);
  // Exactly one in-range receiver per round: outcomes must partition.
  EXPECT_EQ(delivered + failed, static_cast<std::uint64_t>(rounds));
  EXPECT_GT(failed, 0u);  // The 50% loss actually bit.
}
#endif  // CPS_OBS_ENABLED

}  // namespace
}  // namespace cps::net

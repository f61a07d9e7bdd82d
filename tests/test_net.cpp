// Tests for the radio model and message bus (net/*).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/message_bus.hpp"
#include "net/radio.hpp"
#include "oracles.hpp"

namespace cps::net {
namespace {

using geo::Vec2;

TEST(DiskRadio, RangeRule) {
  const DiskRadio radio(10.0);
  EXPECT_TRUE(radio.in_range({0.0, 0.0}, {10.0, 0.0}));  // <= Rc.
  EXPECT_TRUE(radio.in_range({0.0, 0.0}, {6.0, 8.0}));
  EXPECT_FALSE(radio.in_range({0.0, 0.0}, {10.1, 0.0}));
}

TEST(DiskRadio, Validation) {
  EXPECT_THROW(DiskRadio(0.0), std::invalid_argument);
  EXPECT_THROW(DiskRadio(10.0, -0.1), std::invalid_argument);
  EXPECT_THROW(DiskRadio(10.0, 1.1), std::invalid_argument);
  // NaN fails every ordered comparison, so each must be rejected too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(DiskRadio{nan}, std::invalid_argument);
  EXPECT_THROW(DiskRadio(10.0, nan), std::invalid_argument);
  EXPECT_THROW(DiskLink{nan}, std::invalid_argument);
}

TEST(DiskRadio, LosslessTransmitMatchesRange) {
  DiskRadio radio(10.0);
  EXPECT_TRUE(radio.transmit({0.0, 0.0}, {5.0, 0.0}));
  EXPECT_FALSE(radio.transmit({0.0, 0.0}, {50.0, 0.0}));
}

TEST(DiskRadio, LossyTransmitDropsApproximatelyAtRate) {
  DiskRadio radio(10.0, 0.25, 42);
  int delivered = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (radio.transmit({0.0, 0.0}, {1.0, 0.0})) ++delivered;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.75, 0.02);
}

TEST(MessageBus, DeliversToInRangeOnly) {
  MessageBus<std::string> bus(3, DiskRadio(10.0));
  bus.set_position(0, {0.0, 0.0});
  bus.set_position(1, {5.0, 0.0});
  bus.set_position(2, {50.0, 0.0});
  bus.broadcast(0, "hello");
  bus.step(oracle::in_range_receivers(bus));
  ASSERT_EQ(bus.inbox(1).size(), 1u);
  EXPECT_EQ(bus.inbox(1)[0].from, 0u);
  EXPECT_EQ(bus.inbox(1)[0].message, "hello");
  EXPECT_TRUE(bus.inbox(2).empty());
  EXPECT_TRUE(bus.inbox(0).empty());  // No self-delivery.
}

TEST(MessageBus, StepClearsPreviousInboxes) {
  MessageBus<int> bus(2, DiskRadio(10.0));
  bus.set_position(0, {0.0, 0.0});
  bus.set_position(1, {1.0, 0.0});
  bus.broadcast(0, 1);
  bus.step(oracle::in_range_receivers(bus));
  ASSERT_EQ(bus.inbox(1).size(), 1u);
  bus.step(oracle::in_range_receivers(bus));  // Nothing queued.
  EXPECT_TRUE(bus.inbox(1).empty());
}

TEST(MessageBus, MultipleSendersAggregate) {
  MessageBus<int> bus(3, DiskRadio(10.0));
  bus.set_position(0, {0.0, 0.0});
  bus.set_position(1, {5.0, 0.0});
  bus.set_position(2, {5.0, 5.0});
  bus.broadcast(0, 10);
  bus.broadcast(1, 20);
  bus.step(oracle::in_range_receivers(bus));
  EXPECT_EQ(bus.inbox(2).size(), 2u);
  EXPECT_EQ(bus.inbox(0).size(), 1u);
  EXPECT_EQ(bus.inbox(0)[0].message, 20);
}

TEST(MessageBus, UsesSendTimePosition) {
  // A message queued before the sender moved is ranged from where it was
  // sent (the slot model: transmissions happen during the slot).
  MessageBus<int> bus(2, DiskRadio(10.0));
  bus.set_position(0, {0.0, 0.0});
  bus.set_position(1, {8.0, 0.0});
  bus.broadcast(0, 5);
  const std::vector<NodeId> receivers = oracle::in_range_receivers(bus)(0);
  bus.set_position(0, {100.0, 0.0});  // Sender teleports away.
  bus.step([&](NodeId) { return receivers; });
  EXPECT_EQ(bus.inbox(1).size(), 1u);  // Still delivered.
}

TEST(MessageBus, StepRejectsReceiverBeyondNodeCount) {
  MessageBus<int> bus(3, DiskRadio(10.0));
  bus.broadcast(0, 1);
  EXPECT_THROW(bus.step([](NodeId) { return std::vector<NodeId>{1, 3}; }),
               std::invalid_argument);
  // Nothing was delivered; the message is still queued.
  EXPECT_TRUE(bus.inbox(1).empty());
  bus.step(oracle::in_range_receivers(bus));
  EXPECT_EQ(bus.inbox(1).size(), 1u);
}

TEST(MessageBus, StepRejectsSenderAsItsOwnReceiver) {
  MessageBus<int> bus(3, DiskRadio(10.0));
  bus.broadcast(1, 1);
  EXPECT_THROW(bus.step([](NodeId) { return std::vector<NodeId>{0, 1}; }),
               std::invalid_argument);
  EXPECT_TRUE(bus.inbox(0).empty());
}

TEST(MessageBus, StepRejectsDeadReceiver) {
  MessageBus<int> bus(3, DiskRadio(10.0));
  bus.set_alive(2, false);
  bus.broadcast(0, 1);
  EXPECT_THROW(bus.step([](NodeId) { return std::vector<NodeId>{1, 2}; }),
               std::invalid_argument);
}

TEST(MessageBus, OutOfRangeIdsThrow) {
  MessageBus<int> bus(2, DiskRadio(10.0));
  EXPECT_THROW(bus.broadcast(2, 0), std::out_of_range);
  EXPECT_THROW(bus.set_position(5, {0.0, 0.0}), std::out_of_range);
  EXPECT_THROW(bus.inbox(9), std::out_of_range);
}

TEST(MessageBus, LossyBusDropsSomeDeliveries) {
  MessageBus<int> bus(2, DiskRadio(10.0, 0.5, 7));
  bus.set_position(0, {0.0, 0.0});
  bus.set_position(1, {1.0, 0.0});
  int delivered = 0;
  for (int i = 0; i < 1000; ++i) {
    bus.broadcast(0, i);
    bus.step(oracle::in_range_receivers(bus));
    delivered += static_cast<int>(bus.inbox(1).size());
  }
  EXPECT_GT(delivered, 350);
  EXPECT_LT(delivered, 650);
}

}  // namespace
}  // namespace cps::net

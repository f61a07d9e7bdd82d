// Slot-synchronous broadcast bus over a pluggable link model.
//
// CMA (Table 2) is written against a classic synchronous-rounds model: in
// each slot every node broadcasts a small message (its Tx/tell lines) and
// receives whatever its single-hop neighbours broadcast (Rx/Rxtell).
// MessageBus implements those rounds: messages queued during slot s are
// delivered at the start of slot s+1 to every node within Rc of the sender
// at *send* time, matching the paper's assumption that positions change
// slowly relative to the beacon rate.
//
// The channel behind the bus is a LinkModel (link_model.hpp) — the default
// DiskLink reproduces the original DiskRadio bit-for-bit, while the
// distance-dependent and Gilbert–Elliott models serve the resilience
// sweeps.  Nodes can also die and revive mid-run (set_alive, driven by a
// FaultSchedule): a dead node neither sends nor receives, and messages in
// flight from a node that dies before delivery are lost with the node.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/link_model.hpp"
#include "net/radio.hpp"
#include "obs/obs.hpp"

namespace cps::net {

/// A delivered message with its sender.
template <typename M>
struct Delivery {
  NodeId from = 0;
  M message{};
};

/// Broadcast-only message bus for `M`-typed payloads.
template <typename M>
class MessageBus {
 public:
  /// `node_count` fixed for the bus lifetime; the link model defines
  /// range/loss.  All nodes start alive.
  MessageBus(std::size_t node_count, std::unique_ptr<LinkModel> link)
      : link_(std::move(link)),
        positions_(node_count),
        alive_(node_count, 1),
        inboxes_(node_count) {
    if (!link_) throw std::invalid_argument("MessageBus: null link model");
  }

  /// Convenience: the paper's disk radio behind the LinkModel interface.
  MessageBus(std::size_t node_count, DiskRadio radio)
      : MessageBus(node_count,
                   std::make_unique<DiskLink>(std::move(radio))) {}

  std::size_t node_count() const noexcept { return positions_.size(); }
  const LinkModel& link() const noexcept { return *link_; }
  double radius() const noexcept { return link_->radius(); }

  /// Replaces the channel model (same radius contract as construction).
  /// Queued-but-undelivered messages are judged by the new model.
  void set_link(std::unique_ptr<LinkModel> link) {
    if (!link) throw std::invalid_argument("MessageBus: null link model");
    link_ = std::move(link);
  }

  /// Updates the position used for range checks of subsequent broadcasts.
  void set_position(NodeId id, geo::Vec2 p) { positions_.at(id) = p; }
  geo::Vec2 position(NodeId id) const { return positions_.at(id); }

  /// Marks a node dead (false) or alive (true).  Killing a node clears
  /// its inbox; its queued outbound messages die with it at step().
  void set_alive(NodeId id, bool alive) {
    if (id >= positions_.size()) {
      throw std::out_of_range("MessageBus::set_alive");
    }
    alive_[id] = alive ? 1 : 0;
    if (!alive) inboxes_[id].clear();
  }

  bool alive(NodeId id) const {
    if (id >= positions_.size()) {
      throw std::out_of_range("MessageBus::alive");
    }
    return alive_[id] != 0;
  }

  std::size_t alive_count() const noexcept {
    std::size_t n = 0;
    for (const char a : alive_) n += a != 0;
    return n;
  }

  /// Queues a broadcast for delivery at the next step().  Broadcasts from
  /// dead nodes are dropped (and counted) — a dead radio transmits
  /// nothing, but simulation drivers need not special-case the call.
  void broadcast(NodeId from, M message) {
    if (from >= positions_.size()) {
      throw std::out_of_range("MessageBus::broadcast");
    }
    if (!alive_[from]) {
      CPS_COUNT("net.bus.dead_broadcasts", 1);  // Legacy aggregate name.
      count_drops(DropReason::kDeadSender, 1);
      return;
    }
    ++total_broadcasts_;
    CPS_COUNT("net.bus.messages_sent", 1);
    outbox_.push_back(Pending{from, positions_[from], std::move(message)});
  }

  /// Broadcasts queued over the bus lifetime (the radio-energy proxy).
  std::size_t total_broadcasts() const noexcept { return total_broadcasts_; }

  /// Delivers all queued broadcasts and clears the queue.  The caller
  /// supplies, per living sender, the exact set of living receivers
  /// within the link radius of its send-time position: `receivers_of(from)`
  /// returns a range of NodeIds in ascending order, self excluded —
  /// typically a tile decomposition's pair lists (core::ShardGrid).
  ///
  /// transmit() runs for exactly those pairs in (broadcast order,
  /// receiver ascending) order, so the link's RNG stream and per-link
  /// state follow the same schedule as an all-pairs probe would: pairs
  /// the caller left out are out of range, and the no-draw contract
  /// (link_model.hpp) says they would never have drawn.  When the link is
  /// draw_free() the pairs are delivered without calling transmit().
  ///
  /// Throws std::invalid_argument, before anything is delivered, when a
  /// list names a receiver that does not exist, is dead, or is the
  /// sender itself.
  template <typename ReceiversOf>
  void step(ReceiversOf&& receivers_of) {
    for (const auto& pending : outbox_) {
      if (!alive_[pending.from]) continue;
      for (const NodeId to : receivers_of(pending.from)) {
        if (to >= positions_.size() || to == pending.from || !alive_[to]) {
          throw std::invalid_argument(
              "MessageBus::step: receiver list names a missing, dead or "
              "self receiver");
        }
      }
    }
    begin_slot();
    // Per-reason drop accounting is arithmetic over per-message tallies:
    // every living receiver outside the list is out of range, so
    //   dead_receiver = node_count - alive_now          (per message)
    //   out_of_range  = (alive_now - 1) - delivered - lost
    const bool account = obs::enabled();
    const std::size_t alive_now = account ? alive_count() : 0;
    const bool no_draws = link_->draw_free();
    for (auto& pending : outbox_) {
      if (!alive_[pending.from]) {
        // Died with messages in flight: the whole broadcast is lost.
        count_drops(DropReason::kDeadSender, 1);
        continue;
      }
      std::uint64_t delivered = 0;
      std::uint64_t lost = 0;
      const auto& receivers = receivers_of(pending.from);
      for (const NodeId to : receivers) {
        CPS_COUNT("net.bus.transmit_attempts", 1);
        if (no_draws || link_->transmit(pending.from, to, pending.sent_from,
                                        positions_[to])) {
          CPS_COUNT("net.bus.deliveries", 1);
          ++delivered;
          inboxes_[to].push_back(Delivery<M>{pending.from, pending.message});
        } else {
          // Every listed receiver is in range, so a failed transmit is a
          // channel loss, never an out-of-range miss.
          CPS_COUNT("net.bus.delivery_failures", 1);  // Legacy aggregate.
          ++lost;
        }
      }
      if (account) {
        count_drops(DropReason::kDeadReceiver,
                    static_cast<std::uint64_t>(node_count() - alive_now));
        count_drops(DropReason::kLinkLossDraw, lost);
        count_drops(
            DropReason::kOutOfRange,
            static_cast<std::uint64_t>(alive_now - 1) - delivered - lost);
      }
    }
    outbox_.clear();
  }

  /// Messages delivered to `id` by the last step().
  const std::vector<Delivery<M>>& inbox(NodeId id) const {
    return inboxes_.at(id);
  }

 private:
  struct Pending {
    NodeId from;
    geo::Vec2 sent_from;
    M message;
  };

  /// Opens a delivery slot: clears every inbox and pre-reserves it to its
  /// running high-water mark, so a receiver whose inbox storage was
  /// released (e.g. cleared on death, or freshly constructed) regrows to
  /// steady-state capacity in one allocation instead of a push_back
  /// doubling cascade.  Records the previous slot's fullest inbox in the
  /// net.bus.inbox_high_water histogram — the sizing signal the
  /// reservation feeds on, and a cheap congestion telltale.
  void begin_slot() {
    std::size_t fullest = 0;
    for (std::size_t i = 0; i < inboxes_.size(); ++i) {
      const std::size_t sz = inboxes_[i].size();
      fullest = std::max(fullest, sz);
      inbox_hw_[i] = std::max(inbox_hw_[i], sz);
      inboxes_[i].clear();
      if (inboxes_[i].capacity() < inbox_hw_[i]) {
        inboxes_[i].reserve(inbox_hw_[i]);
      }
    }
    CPS_HIST("net.bus.inbox_high_water", fullest);
  }

  std::unique_ptr<LinkModel> link_;
  std::vector<geo::Vec2> positions_;
  std::vector<char> alive_;
  std::vector<Pending> outbox_;
  std::vector<std::vector<Delivery<M>>> inboxes_;
  /// Per-receiver running high-water marks feeding begin_slot()'s
  /// reservation.
  std::vector<std::size_t> inbox_hw_ =
      std::vector<std::size_t>(inboxes_.size(), 0);
  std::size_t total_broadcasts_ = 0;
};

}  // namespace cps::net

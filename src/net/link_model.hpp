// Pluggable link-level channel models.
//
// DiskRadio (radio.hpp) hard-codes the paper's channel: a disk of radius
// Rc with i.i.d. packet loss.  Field deployments are not i.i.d. — loss
// grows toward the edge of the communication range, and interference and
// multipath fade links in *bursts* (the classic Gilbert–Elliott channel).
// LinkModel generalises the radio behind MessageBus so the resilience
// benches can sweep channel families, while DiskLink preserves today's
// disk model bit-for-bit (same RNG stream, same draw schedule).
//
// Determinism contract: every model is seeded and consumes randomness
// only inside transmit(), in call order.  Two runs issuing the same
// transmit() sequence on equal-seeded models see identical outcomes.
//
// No-draw contract: transmit() rejects any pair farther apart than
// radius() *without consuming randomness* (draw schedules are
// per-attempt-on-in-range-pairs only).  MessageBus relies on this to
// commit a pre-computed in-range pair list (core::ShardGrid's tile
// matching): since out-of-range attempts never draw, calling transmit()
// for exactly the in-range pairs — in (sender broadcast order, receiver
// ascending) order — replays the draw schedule and per-link state
// trajectory of an all-pairs probe.  test_perf_equivalence pins the
// contract per model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "geometry/vec2.hpp"
#include "net/radio.hpp"
#include "numerics/rng.hpp"
#include "obs/obs.hpp"

namespace cps::net {

using NodeId = std::size_t;

/// Why a message (or a learned neighbour entry) was dropped.  Replaces the
/// single undifferentiated drop count: per-reason counters are what the
/// timeline and the CMA ghost-ring validation need — "losses rose
/// at slot 117" is useless without knowing whether the channel faded
/// (link_loss_draw), the swarm thinned (dead_*) or it stretched out of
/// range (out_of_range).
enum class DropReason {
  kDeadSender,    ///< Sender dead at broadcast, or died with msgs in flight.
  kDeadReceiver,  ///< Receiver dead at delivery time.
  kOutOfRange,    ///< Receiver alive but beyond the link radius.
  kLinkLossDraw,  ///< In-range attempt lost to the channel's random draw.
  kTtlExpired,    ///< Learned neighbour entry aged out (no beacon within TTL).
};

constexpr const char* drop_reason_name(DropReason r) noexcept {
  switch (r) {
    case DropReason::kDeadSender: return "dead_sender";
    case DropReason::kDeadReceiver: return "dead_receiver";
    case DropReason::kOutOfRange: return "out_of_range";
    case DropReason::kLinkLossDraw: return "link_loss_draw";
    case DropReason::kTtlExpired: return "ttl_expired";
  }
  return "unknown";
}

/// Counts `n` drops for `reason` (net.bus.drop.<reason>) and the aggregate
/// net.bus.drops_total.  One CPS_COUNT call site per reason so each metric
/// name stays a literal (the macro caches the registry lookup per site).
inline void count_drops(DropReason reason, std::uint64_t n) {
  if (n == 0) return;
  switch (reason) {
    case DropReason::kDeadSender:
      CPS_COUNT("net.bus.drop.dead_sender", n);
      break;
    case DropReason::kDeadReceiver:
      CPS_COUNT("net.bus.drop.dead_receiver", n);
      break;
    case DropReason::kOutOfRange:
      CPS_COUNT("net.bus.drop.out_of_range", n);
      break;
    case DropReason::kLinkLossDraw:
      CPS_COUNT("net.bus.drop.link_loss_draw", n);
      break;
    case DropReason::kTtlExpired:
      CPS_COUNT("net.bus.drop.ttl_expired", n);
      break;
  }
  CPS_COUNT("net.bus.drops_total", n);
}

/// Channel model sampled once per directed transmission attempt.
class LinkModel {
 public:
  virtual ~LinkModel() = default;

  /// Communication radius Rc: no delivery ever succeeds beyond it.
  virtual double radius() const noexcept = 0;

  /// True when a and b are within communication range (distance <= Rc).
  bool in_range(geo::Vec2 a, geo::Vec2 b) const noexcept {
    return geo::distance_sq(a, b) <= radius() * radius();
  }

  /// Samples one transmission attempt on the directed link from -> to;
  /// always false, with no draw, when out of range.  Node ids identify
  /// the link for models with per-link state (Gilbert–Elliott);
  /// position-only models ignore them.  Mutates internal randomness.
  virtual bool transmit(NodeId from, NodeId to, geo::Vec2 from_pos,
                        geo::Vec2 to_pos) noexcept = 0;

  /// True when transmit() is a pure function of the endpoint geometry:
  /// it never consumes randomness and never mutates per-link state, and
  /// in-range attempts always succeed.  MessageBus::step may then
  /// deliver pre-verified in-range pairs without calling transmit() at
  /// all — the draw schedule it would have to preserve is empty.  Default false; only a model that
  /// can prove the property (e.g. a disk link with zero loss) overrides.
  virtual bool draw_free() const noexcept { return false; }

  /// Deep copy (fresh RNG/link state identical to the source's current
  /// state), for buses that are copied or re-armed.
  virtual std::unique_ptr<LinkModel> clone() const = 0;
};

/// The paper's channel verbatim: DiskRadio behind the LinkModel interface.
/// Wraps an actual DiskRadio so the RNG draw schedule (no draw when the
/// loss probability is zero) matches the seed implementation bit-for-bit.
class DiskLink final : public LinkModel {
 public:
  explicit DiskLink(DiskRadio radio) : radio_(std::move(radio)) {}
  DiskLink(double radius, double loss_probability = 0.0,
           std::uint64_t seed = 1)
      : radio_(radius, loss_probability, seed) {}

  double radius() const noexcept override { return radio_.radius(); }
  bool transmit(NodeId, NodeId, geo::Vec2 from_pos,
                geo::Vec2 to_pos) noexcept override {
    return radio_.transmit(from_pos, to_pos);
  }
  // A lossless disk never draws (DiskRadio skips the Bernoulli sample at
  // loss 0), so its draw schedule is empty and in-range attempts always
  // succeed — exactly the draw_free() property.
  bool draw_free() const noexcept override {
    return radio_.loss_probability() == 0.0;
  }
  std::unique_ptr<LinkModel> clone() const override {
    return std::make_unique<DiskLink>(*this);
  }

 private:
  DiskRadio radio_;
};

/// Distance-dependent loss: p(d) = edge_loss * (d / Rc)^exponent, so the
/// channel is clean at zero range and loses `edge_loss` of packets at the
/// very edge of the disk.  One RNG draw per in-range attempt.
class DistanceLossLink final : public LinkModel {
 public:
  /// radius > 0 and finite, edge_loss in [0, 1], exponent > 0;
  /// std::invalid_argument otherwise.
  DistanceLossLink(double radius, double edge_loss, double exponent = 2.0,
                   std::uint64_t seed = 1);

  double radius() const noexcept override { return radius_; }
  double edge_loss() const noexcept { return edge_loss_; }

  /// Loss probability at distance d (clamped to [0, Rc]).
  double loss_at(double distance) const noexcept;

  bool transmit(NodeId, NodeId, geo::Vec2 from_pos,
                geo::Vec2 to_pos) noexcept override;
  std::unique_ptr<LinkModel> clone() const override {
    return std::make_unique<DistanceLossLink>(*this);
  }

 private:
  double radius_;
  double edge_loss_;
  double exponent_;
  num::Rng rng_;
};

/// Gilbert–Elliott bursty channel: each directed link is a two-state
/// Markov chain (good/bad) advanced one step per transmission attempt,
/// with a per-state loss probability.  Expected burst length in the bad
/// state is 1 / p_bad_to_good, so small transition probabilities give
/// long fades — the regime i.i.d. loss cannot express.
///
/// Node ids must fit in 32 bits: the per-link state is one hash table
/// keyed by (from << 32 | to).  An in-range transmit() with a wider id
/// calls std::terminate (transmit() is noexcept) rather than alias
/// another link's state.
///
/// The table is flat open addressing: linear probing over a power-of-two
/// slot array kept at most half full, doubled only when an insert would
/// pass that load.  Entries are never erased (a link that recovers stays
/// as a good entry).  Occupancy is a per-slot state byte, not a reserved
/// key: every 64-bit key, the all-ones link (2^32 - 1, 2^32 - 1)
/// included, is a legal link.
class GilbertElliottLink final : public LinkModel {
 public:
  struct Params {
    double p_good_to_bad = 0.05;  ///< Per-attempt fade-in probability.
    double p_bad_to_good = 0.2;   ///< Per-attempt recovery probability.
    double loss_good = 0.0;       ///< Loss probability in the good state.
    double loss_bad = 0.9;        ///< Loss probability in the bad state.
  };

  /// radius > 0 and finite, all probabilities in [0, 1];
  /// std::invalid_argument otherwise.  Links start in the good state.
  GilbertElliottLink(double radius, const Params& params,
                     std::uint64_t seed = 1);

  double radius() const noexcept override { return radius_; }
  const Params& params() const noexcept { return params_; }

  /// True when the directed link is currently faded (in the bad state).
  bool link_is_bad(NodeId from, NodeId to) const noexcept;

  bool transmit(NodeId from, NodeId to, geo::Vec2 from_pos,
                geo::Vec2 to_pos) noexcept override;
  std::unique_ptr<LinkModel> clone() const override {
    return std::make_unique<GilbertElliottLink>(*this);
  }

 private:
  /// One slot of the link table.
  struct LinkSlot {
    std::uint64_t key = 0;  ///< from << 32 | to; meaningless when empty.
    std::uint8_t state = 0;  ///< kEmpty, kGood or kBad.
  };
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kGood = 1;
  static constexpr std::uint8_t kBad = 2;

  /// Index of `key`'s slot, or of the empty slot ending its probe run.
  /// Requires a non-empty table.
  std::size_t probe(std::uint64_t key) const noexcept;
  /// The state byte of `key`, inserted as kGood when absent.
  std::uint8_t& state_of(std::uint64_t key);
  /// Doubles the table (16 slots when empty) and re-inserts every entry.
  void grow();

  double radius_;
  Params params_;
  num::Rng rng_;
  /// Directed link -> state.  Absent means good (the start state).
  /// Nothing iterates it, so the slot layout cannot reach an outcome.
  std::vector<LinkSlot> slots_;
  std::size_t used_ = 0;  ///< Occupied slots.
};

}  // namespace cps::net

#include "net/link_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

namespace cps::net {

DistanceLossLink::DistanceLossLink(double radius, double edge_loss,
                                   double exponent, std::uint64_t seed)
    : radius_(radius),
      edge_loss_(edge_loss),
      exponent_(exponent),
      rng_(seed) {
  if (!(radius > 0.0) || !std::isfinite(radius)) {
    throw std::invalid_argument(
        "DistanceLossLink: radius not positive and finite");
  }
  if (!(edge_loss >= 0.0 && edge_loss <= 1.0)) {
    throw std::invalid_argument("DistanceLossLink: edge loss");
  }
  if (!(exponent > 0.0)) {
    throw std::invalid_argument("DistanceLossLink: exponent <= 0");
  }
}

double DistanceLossLink::loss_at(double distance) const noexcept {
  const double d = std::clamp(distance, 0.0, radius_);
  return edge_loss_ * std::pow(d / radius_, exponent_);
}

bool DistanceLossLink::transmit(NodeId, NodeId, geo::Vec2 from_pos,
                                geo::Vec2 to_pos) noexcept {
  if (!in_range(from_pos, to_pos)) return false;
  return !rng_.bernoulli(loss_at(geo::distance(from_pos, to_pos)));
}

GilbertElliottLink::GilbertElliottLink(double radius, const Params& params,
                                       std::uint64_t seed)
    : radius_(radius), params_(params), rng_(seed) {
  if (!(radius > 0.0) || !std::isfinite(radius)) {
    throw std::invalid_argument(
        "GilbertElliottLink: radius not positive and finite");
  }
  for (const double p : {params.p_good_to_bad, params.p_bad_to_good,
                         params.loss_good, params.loss_bad}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument("GilbertElliottLink: probability");
    }
  }
}

namespace {

/// True when both ids fit the 32-bit halves of a link key.
bool keyable(NodeId from, NodeId to) noexcept {
  constexpr NodeId kMaxId = std::numeric_limits<std::uint32_t>::max();
  return from <= kMaxId && to <= kMaxId;
}

std::uint64_t link_key(NodeId from, NodeId to) noexcept {
  return static_cast<std::uint64_t>(from) << 32 |
         static_cast<std::uint64_t>(to);
}

}  // namespace

std::size_t GilbertElliottLink::probe(std::uint64_t key) const noexcept {
  // Fibonacci hashing: the top bits of key * 2^64/phi spread the
  // (from << 32 | to) keys of neighbouring ids across the table.
  const std::size_t mask = slots_.size() - 1;
  const int shift = 64 - std::countr_zero(slots_.size());
  std::size_t i = static_cast<std::size_t>(
      (key * 0x9E3779B97F4A7C15ull) >> shift);
  while (slots_[i].state != kEmpty && slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void GilbertElliottLink::grow() {
  const std::vector<LinkSlot> old = std::exchange(
      slots_, std::vector<LinkSlot>(slots_.empty() ? 16 : 2 * slots_.size()));
  for (const LinkSlot& slot : old) {
    if (slot.state != kEmpty) slots_[probe(slot.key)] = slot;
  }
}

std::uint8_t& GilbertElliottLink::state_of(std::uint64_t key) {
  if (slots_.empty()) grow();
  std::size_t i = probe(key);
  if (slots_[i].state == kEmpty) {
    // Keep the load at or below one half.
    if (2 * (used_ + 1) > slots_.size()) {
      grow();
      i = probe(key);
    }
    slots_[i] = LinkSlot{key, kGood};
    ++used_;
  }
  return slots_[i].state;
}

bool GilbertElliottLink::link_is_bad(NodeId from, NodeId to) const noexcept {
  // A link with a wider id never got state (transmit() would have ended
  // the program), so it is in the start state.
  if (!keyable(from, to) || slots_.empty()) return false;
  return slots_[probe(link_key(from, to))].state == kBad;
}

bool GilbertElliottLink::transmit(NodeId from, NodeId to, geo::Vec2 from_pos,
                                  geo::Vec2 to_pos) noexcept {
  if (!in_range(from_pos, to_pos)) return false;
  // A wider id would alias another link's state; noexcept leaves no
  // error to report but ending the program.
  if (!keyable(from, to)) std::terminate();
  std::uint8_t& state = state_of(link_key(from, to));
  // One Markov step per attempt, then a loss draw in the new state; the
  // two draws always happen so the stream stays aligned across links.
  bool is_bad = state == kBad;
  const bool flip = rng_.bernoulli(is_bad ? params_.p_bad_to_good
                                          : params_.p_good_to_bad);
  if (flip) {
    is_bad = !is_bad;
    state = is_bad ? kBad : kGood;
  }
  return !rng_.bernoulli(is_bad ? params_.loss_bad : params_.loss_good);
}

}  // namespace cps::net

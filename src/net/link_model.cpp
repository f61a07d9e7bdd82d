#include "net/link_model.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>

namespace cps::net {

DistanceLossLink::DistanceLossLink(double radius, double edge_loss,
                                   double exponent, std::uint64_t seed)
    : radius_(radius),
      edge_loss_(edge_loss),
      exponent_(exponent),
      rng_(seed) {
  if (!(radius > 0.0)) {
    throw std::invalid_argument("DistanceLossLink: radius <= 0");
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
  if (!(radius > 0.0)) {
    throw std::invalid_argument("GilbertElliottLink: radius <= 0");
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

bool GilbertElliottLink::link_is_bad(NodeId from, NodeId to) const noexcept {
  // A link with a wider id never got state (transmit() would have ended
  // the program), so it is in the start state.
  if (!keyable(from, to)) return false;
  const auto it = bad_.find(link_key(from, to));
  return it != bad_.end() && it->second;
}

bool GilbertElliottLink::transmit(NodeId from, NodeId to, geo::Vec2 from_pos,
                                  geo::Vec2 to_pos) noexcept {
  if (!in_range(from_pos, to_pos)) return false;
  // A wider id would alias another link's state; noexcept leaves no
  // error to report but ending the program.
  if (!keyable(from, to)) std::terminate();
  bool& is_bad = bad_[link_key(from, to)];
  // One Markov step per attempt, then a loss draw in the new state; the
  // two draws always happen so the stream stays aligned across links.
  const bool flip = rng_.bernoulli(is_bad ? params_.p_bad_to_good
                                          : params_.p_good_to_bad);
  if (flip) is_bad = !is_bad;
  return !rng_.bernoulli(is_bad ? params_.loss_bad : params_.loss_good);
}

}  // namespace cps::net

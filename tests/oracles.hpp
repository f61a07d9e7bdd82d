// Brute-force references the production engines are checked against.
//
// Each one recomputes its answer the slow, obvious way and shares no
// algorithm with the code under test:
//  * walk_delta: δ by locating every lattice point with a remembering
//    walk, instead of DeltaMetric's triangle rasterisation;
//  * in_range_receivers: MessageBus receiver lists by testing every node
//    against every sender, instead of core::ShardGrid's tile matching;
//  * MapGilbertElliott: the Gilbert–Elliott channel with its per-link
//    state in an ordered map keyed by the id pair, instead of
//    GilbertElliottLink's packed-key hash table.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/delta.hpp"
#include "core/delta_detail.hpp"
#include "field/field.hpp"
#include "geometry/delaunay.hpp"
#include "geometry/triangle.hpp"
#include "net/link_model.hpp"
#include "net/message_bus.hpp"
#include "numerics/rng.hpp"
#include "numerics/quadrature.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::oracle {

/// δ of `dt` against `reference` on `metric`'s lattice, locating every
/// point with Delaunay::locate_from seeded by the previous point's
/// triangle.  Rows are reduced through par::parallel_reduce in chunks of
/// core::detail::kChunkRows rows — DeltaMetric's chunk layout — so the
/// walk's hint chain, and therefore the sum, is bitwise comparable with
/// DeltaMetric::delta at any thread count.
inline double walk_delta(const core::DeltaMetric& metric,
                         const field::Field& reference,
                         const geo::Delaunay& dt) {
  const std::size_t res = metric.resolution();
  const num::MidpointLattice lat(metric.region(), res, res);
  const auto ref = metric.reference_lattice(reference);
  const double sum = par::parallel_reduce(
      res, 0.0,
      [&](std::size_t row_begin, std::size_t row_end) {
        double s = 0.0;
        int hint = -1;
        for (std::size_t j = row_begin; j < row_end; ++j) {
          for (std::size_t i = 0; i < res; ++i) {
            const geo::Vec2 p{lat.xs()[i], lat.y(j)};
            hint = dt.locate_from(p, hint);
            const auto& t = dt.triangle(hint);
            const double z = geo::interpolate_linear(
                dt.triangle_geometry(hint), dt.vertex(t.v[0]).z,
                dt.vertex(t.v[1]).z, dt.vertex(t.v[2]).z, p);
            s += std::abs((*ref)[j * res + i] - z);
          }
        }
        return s;
      },
      [](double a, double b) { return a + b; }, core::detail::kChunkRows);
  return sum * lat.hx() * lat.hy();
}

/// Receiver lists for MessageBus::step by brute force: every living node
/// other than the sender within the link radius of the sender's current
/// position, ascending.
template <typename M>
auto in_range_receivers(const net::MessageBus<M>& bus) {
  return [&bus](net::NodeId from) {
    std::vector<net::NodeId> out;
    for (net::NodeId to = 0; to < bus.node_count(); ++to) {
      if (to != from && bus.alive(to) &&
          bus.link().in_range(bus.position(from), bus.position(to))) {
        out.push_back(to);
      }
    }
    return out;
  };
}

/// Gilbert–Elliott channel written out from its definition: no draw out
/// of range; in range, one Markov step on the directed link's state, then
/// one loss draw in the new state.  State lives in a std::map keyed by
/// the (from, to) pair, so ids of any width and any access order map to
/// their own link.  Copyable, so a copy stands in for clone().
class MapGilbertElliott {
 public:
  MapGilbertElliott(double radius, const net::GilbertElliottLink::Params& p,
                    std::uint64_t seed)
      : radius_(radius), params_(p), rng_(seed) {}

  bool transmit(net::NodeId from, net::NodeId to, geo::Vec2 from_pos,
                geo::Vec2 to_pos) {
    if (geo::distance_sq(from_pos, to_pos) > radius_ * radius_) return false;
    bool& bad = bad_[{from, to}];
    if (rng_.bernoulli(bad ? params_.p_bad_to_good : params_.p_good_to_bad)) {
      bad = !bad;
    }
    return !rng_.bernoulli(bad ? params_.loss_bad : params_.loss_good);
  }

  bool link_is_bad(net::NodeId from, net::NodeId to) const {
    const auto it = bad_.find({from, to});
    return it != bad_.end() && it->second;
  }

 private:
  double radius_;
  net::GilbertElliottLink::Params params_;
  num::Rng rng_;
  std::map<std::pair<net::NodeId, net::NodeId>, bool> bad_;
};

}  // namespace cps::oracle

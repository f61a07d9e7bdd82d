// The CMA slot schedule: tiles + ghost rings.
//
// Every CMA interaction is limited-range: sensing reads a disk of radius
// Rs, the radio reaches Rc.  ShardGrid exploits that locality the way the
// distributed coverage literature does (Cortés–Martínez–Bullo; the
// region-representation deployments of arXiv 0911.1379): the region is
// partitioned into tiles of side >= the ghost width g = max(Rs, link
// radius); a tile *owns* the nodes whose positions fall inside it and
// additionally sees a *ghost ring* — the neighbouring tiles' nodes within
// g of its rectangle.  Since g >= the link radius and the tile side >= g,
// every radio interaction of an owned node is covered by the tile's own
// nodes plus its 3x3 neighbourhood's ghosts: tiles never need state from
// further away, which is what makes the per-tile work embarrassingly
// parallel.
//
// Per slot, prepare() (a) reassigns ownership from the current positions
// — a node that crossed a tile edge simply lands in its new tile
// (*migration*, counted, no handshake needed because ownership is
// recomputed from scratch each slot), and (b) runs the *matching* pass:
// for each owned, living sender it computes the exact ascending-id list
// of living receivers within the link radius by a plain scan of the
// tile's id-sorted candidate set (own nodes plus ghosts, a few hundred at
// the paper's density), so the list is ascending with no per-sender sort
// or index.  The match is computed once per slot and reused by both bus
// rounds (beacon and tell) — positions are frozen within a slot.
//
// Determinism: ownership is a pure function of position (ties on tile
// edges break toward the higher-index tile via floor + clamp); owned
// lists are built by a counting sort over ascending node ids; each
// sender scans its tile's id-sorted candidate list in order; and per-tile
// results are folded in ascending tile order.  The per-sender receiver
// lists are therefore independent of the thread count and of the tile
// size — fed through MessageBus::step, which commits them serially in
// broadcast order, every tiling gives the same deliveries as an
// all-pairs probe (the no-draw contract in net/link_model.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/vec2.hpp"
#include "net/link_model.hpp"
#include "numerics/quadrature.hpp"

namespace cps::core {

class ShardGrid {
 public:
  /// Tiles `region` with sides >= max(tile_size, ghost) (both > 0, and
  /// at most 2^32 - 1 tiles; std::invalid_argument otherwise).  The actual
  /// side stretches so an integral number of tiles covers the region
  /// exactly; `ghost` must be >= the link radius used at prepare() time.
  ShardGrid(const num::Rect& region, double tile_size, double ghost);

  /// Rebuilds ownership (counting migrations) and the per-sender receiver
  /// lists for this slot's positions/liveness.  Tile matching runs on the
  /// process thread pool; results are thread-count independent.  Throws
  /// std::logic_error if link.radius() exceeds the ghost width — the ring
  /// would no longer cover the radio disk.
  void prepare(std::span<const geo::Vec2> positions,
               std::span<const char> alive, const net::LinkModel& link);

  /// Living in-range receivers (ascending ids, self excluded) of the last
  /// prepare()'s matching for sender `from` — the exact set and order an
  /// all-pairs probe would have delivered-or-lost to.  Valid until the
  /// next prepare().
  std::span<const net::NodeId> receivers_of(net::NodeId from) const {
    const Tile& tile = tiles_[node_tile_[from]];
    return {tile.pairs.data() + recv_start_[from], recv_count_[from]};
  }

  std::size_t tile_count() const noexcept { return tiles_.size(); }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t rows() const noexcept { return rows_; }
  double ghost() const noexcept { return ghost_; }

  /// Node ids owned by `tile` after the last prepare(), ascending.  The
  /// per-tile compute phases iterate these; dead nodes are included
  /// (ownership is positional) and filtered by the phase bodies.
  std::span<const std::uint32_t> owned(std::size_t tile) const {
    return {owned_ids_.data() + owned_starts_[tile],
            owned_ids_.data() + owned_starts_[tile + 1]};
  }

  /// Nodes whose owning tile changed in the last prepare() (0 on the
  /// first).
  std::size_t last_migrations() const noexcept { return last_migrations_; }
  /// Ghost-ring entries exchanged between tiles in the last prepare().
  std::size_t last_ghosts() const noexcept { return last_ghosts_; }
  /// Matched (sender, receiver) pairs in the last prepare().
  std::size_t last_pairs() const noexcept { return last_pairs_; }

 private:
  struct Tile {
    /// Living own + ghost node ids visible to this tile, ascending.
    std::vector<std::uint32_t> candidates;
    std::vector<geo::Vec2> cand_pos;  ///< candidates' positions, aligned.
    /// Concatenated receiver lists of this tile's owned senders.
    std::vector<net::NodeId> pairs;
    std::size_t ghost_count = 0;
  };

  std::size_t tile_of(geo::Vec2 p) const noexcept;
  num::Rect tile_rect(std::size_t t) const noexcept;
  void match_tile(std::size_t t, std::span<const geo::Vec2> positions,
                  std::span<const char> alive, double radius);

  num::Rect region_;
  double ghost_ = 0.0;
  double sx_ = 1.0, sy_ = 1.0;  ///< Actual tile sides (>= requested).
  std::size_t cols_ = 1, rows_ = 1;
  std::vector<Tile> tiles_;
  std::vector<std::uint32_t> node_tile_;  ///< Owning tile per node.
  std::vector<std::uint32_t> prev_tile_;  ///< Last slot's, for migrations.
  std::vector<std::uint32_t> owned_starts_;  ///< CSR offsets, tiles + 1.
  std::vector<std::uint32_t> owned_ids_;     ///< Ids grouped by tile.
  /// Per-sender slice of its tile's pair buffer.
  std::vector<std::uint32_t> recv_start_;
  std::vector<std::uint32_t> recv_count_;
  std::size_t last_migrations_ = 0;
  std::size_t last_ghosts_ = 0;
  std::size_t last_pairs_ = 0;
};

}  // namespace cps::core

#include "core/cma_sharding.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::core {
namespace {

/// Squared distance from p to the closed rectangle (0 inside).
double rect_distance_sq(geo::Vec2 p, const num::Rect& r) noexcept {
  const double dx = p.x < r.x0 ? r.x0 - p.x : (p.x > r.x1 ? p.x - r.x1 : 0.0);
  const double dy = p.y < r.y0 ? r.y0 - p.y : (p.y > r.y1 ? p.y - r.y1 : 0.0);
  return dx * dx + dy * dy;
}

}  // namespace

ShardGrid::ShardGrid(const num::Rect& region, double tile_size,
                     double ghost)
    : region_(region), ghost_(ghost) {
  if (!(tile_size > 0.0) || !(ghost > 0.0)) {
    throw std::invalid_argument("ShardGrid: tile_size and ghost > 0");
  }
  // The 3x3 ghost coverage argument needs side >= ghost: anything within
  // ghost of a tile rectangle then lies in the tile or a direct
  // neighbour.
  const double side = std::max(tile_size, ghost);
  const double w = region.x1 - region.x0;
  const double h = region.y1 - region.y0;
  // Counted in doubles first: a tiny side makes the tile count too large
  // for any integer cast, and node_tile_ stores tile ids as uint32_t.
  const double cols = std::max(1.0, std::floor(w / side));
  const double rows = std::max(1.0, std::floor(h / side));
  if (!(cols * rows <=
        static_cast<double>(std::numeric_limits<std::uint32_t>::max()))) {
    throw std::invalid_argument("ShardGrid: tile count exceeds uint32_t");
  }
  cols_ = static_cast<std::size_t>(cols);
  rows_ = static_cast<std::size_t>(rows);
  // Stretch the sides so cols_ x rows_ tiles cover the region exactly;
  // stretching keeps them >= side, never below.
  sx_ = w > 0.0 ? w / static_cast<double>(cols_) : 1.0;
  sy_ = h > 0.0 ? h / static_cast<double>(rows_) : 1.0;
  tiles_.resize(cols_ * rows_);
}

std::size_t ShardGrid::tile_of(geo::Vec2 p) const noexcept {
  // floor + clamp: a node exactly on a shared edge belongs to the
  // higher-index tile, uniquely and position-deterministically.
  double c = std::floor((p.x - region_.x0) / sx_);
  double r = std::floor((p.y - region_.y0) / sy_);
  std::size_t col = c > 0.0 ? static_cast<std::size_t>(c) : 0;
  std::size_t row = r > 0.0 ? static_cast<std::size_t>(r) : 0;
  if (col >= cols_) col = cols_ - 1;
  if (row >= rows_) row = rows_ - 1;
  return row * cols_ + col;
}

num::Rect ShardGrid::tile_rect(std::size_t t) const noexcept {
  const std::size_t col = t % cols_;
  const std::size_t row = t / cols_;
  return num::Rect{region_.x0 + static_cast<double>(col) * sx_,
                   region_.y0 + static_cast<double>(row) * sy_,
                   region_.x0 + static_cast<double>(col + 1) * sx_,
                   region_.y0 + static_cast<double>(row + 1) * sy_};
}

void ShardGrid::prepare(std::span<const geo::Vec2> positions,
                        std::span<const char> alive,
                        const net::LinkModel& link) {
  const std::size_t n = positions.size();
  const double radius = link.radius();
  if (radius > ghost_) {
    throw std::logic_error(
        "ShardGrid: link radius exceeds the ghost-ring width");
  }

  // --- Ownership: recomputed from scratch; a changed tile is a
  // migration (the node's state travels with it implicitly — everything
  // is indexed by node id, not by tile). ---
  const bool first = node_tile_.size() != n;
  prev_tile_.swap(node_tile_);
  node_tile_.resize(n);
  std::size_t migrations = 0;
  for (std::size_t i = 0; i < n; ++i) {
    node_tile_[i] = static_cast<std::uint32_t>(tile_of(positions[i]));
    if (!first && node_tile_[i] != prev_tile_[i]) ++migrations;
  }

  // Counting sort into the owned CSR; iterating ids ascending keeps every
  // tile's owned list ascending.
  const std::size_t tiles = tiles_.size();
  owned_starts_.assign(tiles + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++owned_starts_[node_tile_[i] + 1];
  for (std::size_t t = 0; t < tiles; ++t) {
    owned_starts_[t + 1] += owned_starts_[t];
  }
  owned_ids_.resize(n);
  std::vector<std::uint32_t> cursor(owned_starts_.begin(),
                                    owned_starts_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    owned_ids_[cursor[node_tile_[i]]++] = static_cast<std::uint32_t>(i);
  }

  // --- Ghost exchange + matching, tile-parallel.  Tiles touch only their
  // own buffers and the per-sender slices of their owned nodes, so the
  // region is race-free; all outputs are pure functions of (positions,
  // alive, radius). ---
  recv_start_.resize(n);
  recv_count_.resize(n);
  par::parallel_for_chunks(
      tiles,
      [&](std::size_t t0, std::size_t t1) {
        for (std::size_t t = t0; t < t1; ++t) {
          match_tile(t, positions, alive, radius);
        }
      },
      /*grain=*/1);

  // Deterministic fold of the per-tile tallies, ascending tile order.
  std::size_t ghosts = 0;
  std::size_t pairs = 0;
  for (const Tile& tile : tiles_) {
    ghosts += tile.ghost_count;
    pairs += tile.pairs.size();
  }
  last_migrations_ = migrations;
  last_ghosts_ = ghosts;
  last_pairs_ = pairs;
  CPS_GAUGE("core.cma.shard.tiles", static_cast<double>(tiles));
  CPS_COUNT("core.cma.shard.migrations", migrations);
  CPS_COUNT("core.cma.shard.ghost_exchanged", ghosts);
  CPS_COUNT("core.cma.shard.match_pairs", pairs);
}

void ShardGrid::match_tile(std::size_t t,
                           std::span<const geo::Vec2> positions,
                           std::span<const char> alive, double radius) {
  Tile& tile = tiles_[t];
  const num::Rect rect = tile_rect(t);
  const std::size_t col = t % cols_;
  const std::size_t row = t / cols_;
  const double ghost_sq = ghost_ * ghost_;

  // Candidates: this tile's living nodes plus the 3x3 neighbourhood's
  // living nodes within the ghost ring.  Collected tile by tile, then
  // sorted into the global ascending-id order the matched-delivery
  // contract requires.
  tile.candidates.clear();
  tile.ghost_count = 0;
  for (std::size_t dr = row == 0 ? 1 : 0; dr <= 2; ++dr) {
    const std::size_t nrow = row + dr - 1;
    if (nrow >= rows_) continue;
    for (std::size_t dc = col == 0 ? 1 : 0; dc <= 2; ++dc) {
      const std::size_t ncol = col + dc - 1;
      if (ncol >= cols_) continue;
      const bool own = nrow == row && ncol == col;
      for (const std::uint32_t id : owned(nrow * cols_ + ncol)) {
        if (!alive[id]) continue;
        if (!own) {
          if (rect_distance_sq(positions[id], rect) > ghost_sq) continue;
          ++tile.ghost_count;
        }
        tile.candidates.push_back(id);
      }
    }
  }
  std::sort(tile.candidates.begin(), tile.candidates.end());
  tile.cand_pos.clear();
  tile.cand_pos.reserve(tile.candidates.size());
  for (const std::uint32_t id : tile.candidates) {
    tile.cand_pos.push_back(positions[id]);
  }

  // Match every living owned sender against the candidates by a plain
  // scan: the candidates are id-sorted, so each sender's receiver list
  // comes out ascending with no per-sender sort.  The in-range predicate
  // is LinkModel::in_range verbatim (distance_sq vs radius^2), so the
  // pair set equals the set of probes that could ever deliver or draw.
  const double r_sq = radius * radius;
  tile.pairs.clear();
  for (const std::uint32_t s : owned(t)) {
    recv_start_[s] = static_cast<std::uint32_t>(tile.pairs.size());
    recv_count_[s] = 0;
    if (!alive[s]) continue;
    const geo::Vec2 ps = positions[s];
    const std::size_t before = tile.pairs.size();
    for (std::size_t k = 0; k < tile.candidates.size(); ++k) {
      const std::uint32_t j = tile.candidates[k];
      if (j == s) continue;
      if (geo::distance_sq(ps, tile.cand_pos[k]) <= r_sq) {
        tile.pairs.push_back(j);
      }
    }
    recv_count_[s] = static_cast<std::uint32_t>(tile.pairs.size() - before);
  }
}

}  // namespace cps::core

// Uniform-grid spatial index for 2D radius queries.
//
// The limited-range-interaction structure the paper's workloads share —
// disk-graph adjacency (Definition 3.1), FRA's nearest-placed-node
// pricing — is "find everything within r of p".  The all-pairs O(n^2)
// scans that answered it in the seed become the hot path at production
// scale; this index answers each query in O(points in the 3x3 cell
// neighbourhood) after an O(n) counting-sort build.  (CMA's radio
// matching does not use it: core::ShardGrid's tiles already bound each
// sender's scan to a few hundred id-sorted candidates, and scanning them
// in id order yields the ascending receiver lists the bus needs without
// a per-sender sort.)
//
// Layout is CSR: point ids bucketed by cell, cells row-major over the
// bounding box, ids ascending inside each cell.  The build and every
// iteration order are fully deterministic, so callers can preserve
// bit-identical results versus the scans they replace.  The index is
// immutable after construction and safe for concurrent queries.
//
// Cell sizing: pass the query radius (or the dominant one).  Queries with
// radius <= cell_size visit at most 9 cells; larger radii degrade
// gracefully to the covering cell rectangle.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "geometry/vec2.hpp"
#include "numerics/quadrature.hpp"

namespace cps::par {

class SpatialHash {
 public:
  /// Indexes `points` with square cells of side `cell_size` (> 0,
  /// std::invalid_argument otherwise) over their bounding box.  Empty
  /// point sets are valid (all queries yield nothing).
  SpatialHash(std::span<const geo::Vec2> points, double cell_size)
      : cell_(cell_size) {
    if (!(cell_size > 0.0)) {
      throw std::invalid_argument("SpatialHash: cell_size <= 0");
    }
    if (points.empty()) {
      nx_ = ny_ = 0;
      starts_.assign(1, 0);
      return;
    }
    double min_x = points[0].x, max_x = points[0].x;
    double min_y = points[0].y, max_y = points[0].y;
    for (const auto& p : points) {
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
    }
    x0_ = min_x;
    y0_ = min_y;
    nx_ = grid_extent(max_x - min_x);
    ny_ = grid_extent(max_y - min_y);

    // Counting sort by cell id; iterating points in index order keeps ids
    // ascending inside every cell.
    const std::size_t cells = nx_ * ny_;
    std::vector<std::uint32_t> cell_of(points.size());
    starts_.assign(cells + 1, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      cell_of[i] = static_cast<std::uint32_t>(
          cell_index(col_of(points[i].x), row_of(points[i].y)));
      ++starts_[cell_of[i] + 1];
    }
    for (std::size_t c = 0; c < cells; ++c) starts_[c + 1] += starts_[c];
    ids_.resize(points.size());
    std::vector<std::uint32_t> cursor(starts_.begin(), starts_.end() - 1);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ids_[cursor[cell_of[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  std::size_t cell_count() const noexcept { return nx_ * ny_; }
  std::size_t cols() const noexcept { return nx_; }
  std::size_t rows() const noexcept { return ny_; }
  double cell_size() const noexcept { return cell_; }

  /// Point ids bucketed in cell c (ascending).
  std::span<const std::uint32_t> cell_members(std::size_t c) const {
    return {ids_.data() + starts_[c], ids_.data() + starts_[c + 1]};
  }

  /// Geometric bounds of cell c (closed rectangle).
  num::Rect cell_bounds(std::size_t c) const noexcept {
    const std::size_t col = c % nx_;
    const std::size_t row = c / nx_;
    return num::Rect{x0_ + static_cast<double>(col) * cell_,
                     y0_ + static_cast<double>(row) * cell_,
                     x0_ + static_cast<double>(col + 1) * cell_,
                     y0_ + static_cast<double>(row + 1) * cell_};
  }

  /// Squared distance from p to the closed rectangle of cell c (0 inside).
  double cell_distance_sq(geo::Vec2 p, std::size_t c) const noexcept {
    const num::Rect b = cell_bounds(c);
    const double dx =
        p.x < b.x0 ? b.x0 - p.x : (p.x > b.x1 ? p.x - b.x1 : 0.0);
    const double dy =
        p.y < b.y0 ? b.y0 - p.y : (p.y > b.y1 ? p.y - b.y1 : 0.0);
    return dx * dx + dy * dy;
  }

  /// Calls fn(id) for every indexed point whose cell intersects the disk
  /// (p, radius) — a superset of the points within `radius`; callers apply
  /// the exact distance test.  Cells are visited row-major, ids ascending
  /// within each cell, so the visit order is deterministic.
  template <typename Fn>
  void for_each_candidate(geo::Vec2 p, double radius, Fn&& fn) const {
    if (ids_.empty()) return;
    const std::size_t c0 = col_of(p.x - radius);
    const std::size_t c1 = col_of(p.x + radius);
    const std::size_t r0 = row_of(p.y - radius);
    const std::size_t r1 = row_of(p.y + radius);
    for (std::size_t row = r0; row <= r1; ++row) {
      for (std::size_t col = c0; col <= c1; ++col) {
        for (const std::uint32_t id : cell_members(cell_index(col, row))) {
          fn(id);
        }
      }
    }
  }

 private:
  std::size_t grid_extent(double span) const noexcept {
    const double cells = std::floor(span / cell_) + 1.0;
    return cells < 1.0 ? 1 : static_cast<std::size_t>(cells);
  }

  std::size_t col_of(double x) const noexcept {
    const double c = std::floor((x - x0_) / cell_);
    if (!(c > 0.0)) return 0;
    const auto i = static_cast<std::size_t>(c);
    return i >= nx_ ? nx_ - 1 : i;
  }

  std::size_t row_of(double y) const noexcept {
    const double r = std::floor((y - y0_) / cell_);
    if (!(r > 0.0)) return 0;
    const auto i = static_cast<std::size_t>(r);
    return i >= ny_ ? ny_ - 1 : i;
  }

  std::size_t cell_index(std::size_t col, std::size_t row) const noexcept {
    return row * nx_ + col;
  }

  double cell_ = 1.0;
  double x0_ = 0.0;
  double y0_ = 0.0;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::vector<std::uint32_t> starts_;  // CSR offsets, size cells + 1.
  std::vector<std::uint32_t> ids_;     // Point ids grouped by cell.
};

}  // namespace cps::par

// Cavity-local incremental δ.
//
// The δ metric re-evaluated from scratch is an O(res²) lattice sweep, but
// a Bowyer–Watson event already reports exactly which triangles changed —
// and the rebuilt surface is untouched outside them.  IncrementalDelta
// keeps the full per-point state of one raster sweep (triangle
// assignment, strictness, |f - DT| contribution) plus per-chunk partial
// sums, consumes each insert/remove/move report, and re-evaluates only
// the lattice cells the report's triangles cover: O(changed area) per
// event instead of O(res²).  That sweep is DeltaMetric::delta's own: the
// rebuild calls core/delta_detail.hpp's span plan, row assignment and
// interpolation, and records what delta() folds away.
//
// Oracle protocol (DESIGN.md §13): after every applied event, value() is
// bit-identical to a fresh DeltaMetric::delta() of the same triangulation
// (and therefore to locating every point with a remembering walk).  That
// holds because
//  * a covered point already strictly inside a live triangle the event
//    did not touch is left alone — not stamped, walked, re-interpolated
//    or re-folded: strict containment is unique and hint-independent, and
//    that triangle's vertices and z did not change, so a fresh sweep
//    gives it the same triangle and the same bits (the event stamps its
//    triangle ids, and every triangle an event removes is dead or one of
//    those ids);
//  * every other covered point is re-derived through the raster's own
//    rules — one strictly inside a created triangle takes it straight
//    from the span being scanned (the fresh sweep's fast assignment), and
//    every other dirty point replays locate_from with the exact hint the
//    fresh sweep would carry (the previous point's assignment, -1 at a
//    chunk head of detail::kChunkRows rows), visiting points in ascending
//    order so that hint is already final;
//  * non-strict (edge/vertex) points are re-walked on EVERY topology
//    event, dirty region or not — their assignment is hint-dependent, so
//    staleness is never allowed to accumulate through them; one outside
//    the event's coverage that lands on its stored triangle again keeps
//    its contribution, and leaves its chunk clean;
//  * per-point contributions are interpolated through the raster phase-2
//    expression verbatim (core/delta_detail.hpp), and dirty chunks are
//    re-folded serially in point order, preserving the sum's rounding
//    sequence (float addition does not re-associate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/delta.hpp"
#include "field/field.hpp"
#include "geometry/delaunay.hpp"
#include "numerics/quadrature.hpp"

namespace cps::core {

/// Stateful cavity-local δ accumulator over one (metric, reference) pair.
/// Not thread-safe; apply events from the thread that owns the
/// triangulation, in the order they happened.
class IncrementalDelta {
 public:
  /// Cumulative work accounting (the bench_perf `delta.incremental`
  /// record and the ≥10× savings gate read these).
  struct Stats {
    std::size_t events = 0;              ///< Applied event reports.
    /// Lattice cells re-assigned/-interpolated (covered points left in an
    /// untouched triangle are not counted).
    std::size_t points_reevaluated = 0;
    std::size_t rows_touched = 0;        ///< Lattice rows with a stamped cell.
    std::size_t relocates = 0;           ///< Dirty points re-walked via locate_from.
    std::size_t rebuilds = 0;            ///< Full sweeps (construction).
    /// Lattice points one full sweep evaluates (res²): events *
    /// full_sweep_points is what the from-scratch path would have cost.
    std::size_t full_sweep_points = 0;
  };

  /// Builds the tracker with a full raster sweep of `dt` against
  /// `reference` on `metric`'s lattice.  The reference lattice is pinned
  /// through the metric's cache (shared with other evaluations of the
  /// same field).  The metric itself is not retained.
  IncrementalDelta(const DeltaMetric& metric, const field::Field& reference,
                   const geo::Delaunay& dt);

  /// Consumes one insertion report.  A structural insert re-rasters the
  /// created cavity; a duplicate-tolerance hit with z_changed re-folds
  /// the star (the PR's staleness bugfix — without the flag this event is
  /// invisible and the running δ silently drifts); a pure duplicate is a
  /// no-op.
  void apply(const geo::Delaunay& dt, const geo::InsertResult& r);

  /// Consumes one removal report (re-rasters the hole fan).
  void apply(const geo::Delaunay& dt, const geo::RemoveResult& r);

  /// Consumes one relocation report (re-rasters changed_triangles, which
  /// cover both the old star and the new cavity).
  void apply(const geo::Delaunay& dt, const geo::MoveResult& r);

  /// The running δ: ascending fold of the chunk partial sums times the
  /// cell area — exactly DeltaMetric::delta()'s final arithmetic.
  double value() const noexcept;

  const Stats& stats() const noexcept { return stats_; }
  std::size_t resolution() const noexcept { return res_; }

 private:
  void rebuild(const geo::Delaunay& dt);
  /// One event: marks the cells `tris` cover, re-evaluates them (and, with
  /// `reassign`, the non-strict points) and re-folds their chunks.
  /// `reassign` is false for pure z-change events (topology untouched:
  /// assignments and hint chains are already what a fresh sweep would
  /// produce).
  void reraster(const geo::Delaunay& dt, const std::vector<int>& tris,
                bool reassign);
  /// Stamps every lattice cell covered by `tris` (point, row, and the
  /// row's column extent, which spans the stamped points only); returns
  /// rows stamped.  With `reassign`, the ids in `tris` are stamped first,
  /// a covered point strictly inside a live unstamped triangle is skipped
  /// (it stamps neither itself nor its row), and a stamped point strictly
  /// inside one of `tris` takes that triangle and its contribution here,
  /// straight from the span being scanned.
  std::size_t mark_dirty(const geo::Delaunay& dt,
                         const std::vector<int>& tris, bool reassign);
  /// Visits the stamped points (merged with the uncovered non-strict
  /// ones when reassigning) in ascending order: walks the unresolved
  /// ones, re-interpolates, and re-folds the dirty chunks.
  void process_dirty(const geo::Delaunay& dt, bool reassign);
  bool chunk_first(std::size_t k) const noexcept;
  std::size_t chunk_of(std::size_t k) const noexcept;
  void refold_chunk(std::size_t c);

  num::Rect region_;
  std::size_t res_ = 0;
  num::MidpointLattice lat_;
  std::shared_ptr<const std::vector<double>> ref_rows_;

  std::vector<int> assign_;        ///< Point -> containing triangle id.
  std::vector<char> strict_;       ///< Point strictly inside assign_?
  /// DT(p) at the point (raster phase-2 bits, degenerate guard applied).
  std::vector<double> interp_;
  std::vector<double> chunk_sums_; ///< Serial point-order |ref-DT| fold.
  /// Sorted indices of the non-strict points (re-walked every topology
  /// event; typically O(res) edge crossings).
  std::vector<std::uint32_t> fallback_;

  // Epoch-stamped dirty scratch (avoids clearing res² flags per event).
  std::vector<std::uint32_t> point_epoch_;
  std::vector<std::uint32_t> row_epoch_;
  std::vector<int> row_lo_, row_hi_;  ///< Stamped column extent per row.
  std::vector<std::uint32_t> chunk_epoch_;
  /// Triangle id -> epoch of the last reassigning event that listed it.
  std::vector<std::uint32_t> tri_epoch_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> dirty_chunks_;
  std::vector<std::uint32_t> next_fallback_;

  Stats stats_;
};

}  // namespace cps::core

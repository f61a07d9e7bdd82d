#include "core/delta_incremental.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/delta_detail.hpp"
#include "obs/obs.hpp"

namespace cps::core {

IncrementalDelta::IncrementalDelta(const DeltaMetric& metric,
                                   const field::Field& reference,
                                   const geo::Delaunay& dt)
    : region_(metric.region()),
      res_(metric.resolution()),
      lat_(metric.region(), metric.resolution(), metric.resolution()),
      ref_rows_(metric.reference_lattice(reference)) {
  stats_.full_sweep_points = res_ * res_;
  rebuild(dt);
}

bool IncrementalDelta::chunk_first(std::size_t k) const noexcept {
  return k % (detail::kChunkRows * res_) == 0;
}

std::size_t IncrementalDelta::chunk_of(std::size_t k) const noexcept {
  return k / (detail::kChunkRows * res_);
}

void IncrementalDelta::refold_chunk(std::size_t c) {
  const std::size_t begin = c * detail::kChunkRows * res_;
  const std::size_t end =
      std::min(begin + detail::kChunkRows * res_, res_ * res_);
  // Serial point-order fold of |ref - DT|: the rounding sequence is the
  // bit-identity contract (per-point deltas do not recompose under
  // re-association), and std::abs of the stored phase-2 value is exact,
  // so folding from interp_ reproduces the raster's diff sum bitwise.
  const double* ref = ref_rows_->data();
  double s = 0.0;
  for (std::size_t k = begin; k < end; ++k) {
    s += std::abs(ref[k] - interp_[k]);
  }
  chunk_sums_[c] = s;
}

void IncrementalDelta::rebuild(const geo::Delaunay& dt) {
  const std::size_t n = res_ * res_;
  const std::size_t chunks =
      (res_ + detail::kChunkRows - 1) / detail::kChunkRows;
  assign_.assign(n, -1);
  strict_.assign(n, 0);
  interp_.assign(n, 0.0);
  chunk_sums_.assign(chunks, 0.0);
  fallback_.clear();
  point_epoch_.assign(n, 0);
  row_epoch_.assign(res_, 0);
  row_lo_.assign(res_, 0);
  row_hi_.assign(res_, -1);
  chunk_epoch_.assign(chunks, 0);
  tri_epoch_.assign(dt.triangle_slots(), 0);
  epoch_ = 0;

  // The fresh sweep (detail::assign_row over one span plan, the chunks'
  // rows in order), recording per-point state instead of folding it away.
  const detail::SpanPlan plan(dt, detail::SpanLattice::midpoint(region_, lat_));
  const std::span<const double> xs = lat_.xs();
  int hint = -1;
  std::vector<detail::RowSpan> active;
  for (std::size_t j = 0; j < res_; ++j) {
    const double y = lat_.y(j);
    const std::size_t base = j * res_;
    detail::assign_row(
        dt, plan, xs, j, y, hint, active,
        [&](std::size_t i, std::uint32_t slot, int tri, bool strict) {
          const std::size_t k = base + i;
          assign_[k] = tri;
          strict_[k] = strict ? 1 : 0;
          if (!strict) fallback_.push_back(static_cast<std::uint32_t>(k));
          interp_[k] = detail::interpolate_point(plan.soa, slot, xs[i], y);
        });
  }
  for (std::size_t c = 0; c < chunks; ++c) refold_chunk(c);
  ++stats_.rebuilds;
  CPS_COUNT("core.delta.inc_rebuilds", 1);
}

std::size_t IncrementalDelta::mark_dirty(const geo::Delaunay& dt,
                                         const std::vector<int>& tris,
                                         bool reassign) {
  const auto grid = detail::SpanLattice::midpoint(region_, lat_);
  const std::span<const double> xs = lat_.xs();
  if (reassign) {
    if (tri_epoch_.size() < dt.triangle_slots()) {
      tri_epoch_.resize(dt.triangle_slots(), 0);
    }
    for (const int tid : tris) {
      tri_epoch_[static_cast<std::size_t>(tid)] = epoch_;
    }
  }
  // A point strictly inside a live triangle this event did not stamp is
  // where a fresh sweep leaves it: strict containment is unique and
  // hint-independent, and that triangle's vertices and z are unchanged.
  // The stamp is complete — an insert's or remove's removed triangles are
  // dead (created and removed ids never overlap), and a move lists every
  // live triangle it touched, recycled slots included.
  const auto untouched = [&](std::size_t k) {
    const int tid = assign_[k];
    return strict_[k] != 0 && dt.triangle_alive(tid) &&
           tri_epoch_[static_cast<std::size_t>(tid)] != epoch_;
  };
  std::size_t rows = 0;
  for (const int tid : tris) {
    if (!dt.triangle_alive(tid)) continue;
    const auto& t = dt.triangle(tid);
    const geo::DtVertex& va = dt.vertex(t.v[0]);
    const geo::DtVertex& vb = dt.vertex(t.v[1]);
    const geo::DtVertex& vc = dt.vertex(t.v[2]);
    const geo::Vec2 a = va.pos;
    const geo::Vec2 b = vb.pos;
    const geo::Vec2 c = vc.pos;
    const double total = geo::orient2d_value(a, b, c);
    detail::for_each_covered_range(
        a, b, c, grid, [&](long j, long ilo, long ihi) {
          const auto row = static_cast<std::size_t>(j);
          const double y = lat_.y(row);
          const std::size_t base = row * res_;
          long lo = -1;  // First and last column this span stamps.
          long hi = -1;
          for (long i = ilo; i <= ihi; ++i) {
            const std::size_t k = base + static_cast<std::size_t>(i);
            if (point_epoch_[k] != epoch_) {
              if (reassign && untouched(k)) continue;
              point_epoch_[k] = epoch_;
              if (lo < 0) lo = i;
              hi = i;
              // Unresolved until a created triangle strictly contains it;
              // assign_ keeps the old triangle for the walk's comparison.
              if (reassign) strict_[k] = 0;
            }
            if (!reassign || strict_[k] != 0) continue;
            // Strict containment is unique and hint-independent, so this is
            // the triangle the fresh sweep fast-assigns (DESIGN.md §13).
            const double x = xs[static_cast<std::size_t>(i)];
            if (detail::strictly_inside(a, b, c, {x, y})) {
              assign_[k] = tid;
              strict_[k] = 1;
              interp_[k] = detail::interpolate_point(
                  a.x, a.y, b.x, b.y, c.x, c.y, va.z, vb.z, vc.z, total, x, y);
            }
          }
          // The row's extent spans the points it stamps, nothing more.
          if (lo < 0) return;
          if (row_epoch_[row] != epoch_) {
            row_epoch_[row] = epoch_;
            row_lo_[row] = static_cast<int>(lo);
            row_hi_[row] = static_cast<int>(hi);
            ++rows;
          } else {
            row_lo_[row] = std::min(row_lo_[row], static_cast<int>(lo));
            row_hi_[row] = std::max(row_hi_[row], static_cast<int>(hi));
          }
        });
  }
  return rows;
}

void IncrementalDelta::process_dirty(const geo::Delaunay& dt,
                                     bool reassign) {
  const std::span<const double> xs = lat_.xs();
  std::size_t points = 0;
  dirty_chunks_.clear();
  next_fallback_.clear();
  const auto touch_chunk = [&](std::size_t k) {
    const auto c = static_cast<std::uint32_t>(chunk_of(k));
    if (chunk_epoch_[c] != epoch_) {
      chunk_epoch_[c] = epoch_;
      dirty_chunks_.push_back(c);
    }
  };
  // Replays the fresh sweep's walk for point k: the hint is the previous
  // point's assignment (-1 at a chunk head), which already holds its
  // final value because points are visited in ascending order.
  const auto relocate = [&](std::size_t k) {
    const geo::Vec2 p{xs[k % res_], lat_.y(k / res_)};
    const int old_tid = assign_[k];
    const int hint = chunk_first(k) ? -1 : assign_[k - 1];
    const int tid = dt.locate_from(p, hint);
    ++stats_.relocates;
    CPS_COUNT("core.delta.inc_relocates", 1);
    // A point the event did not cover still lies in its stored triangle,
    // which was not removed (so its id was not recycled) and whose
    // vertices kept their z: landing on it again leaves the contribution,
    // and the point's chunk sum, as they were.
    if (tid == old_tid && point_epoch_[k] != epoch_) return;
    assign_[k] = tid;
    strict_[k] = detail::strictly_inside(dt, tid, p) ? 1 : 0;
    interp_[k] = detail::interpolate_point(dt, tid, p);
    touch_chunk(k);
  };
  // Non-strict points sit on edges/vertices, where assignment is
  // hint-dependent: any upstream change can shift the hint they would be
  // walked with, so the ones the event did not cover are merged into the
  // ascending visit and re-walked on every topology event.
  std::size_t f = 0;
  const auto visit_fallback_below = [&](std::size_t limit) {
    for (; f < fallback_.size() && fallback_[f] < limit; ++f) {
      const std::uint32_t k = fallback_[f];
      if (point_epoch_[k] == epoch_) continue;  // Visited as covered.
      ++points;
      relocate(k);
      if (strict_[k] == 0) next_fallback_.push_back(k);
    }
  };

  // Covered points in ascending order, straight from the row stamps.
  for (std::size_t row = 0; row < res_; ++row) {
    if (row_epoch_[row] != epoch_) continue;
    const std::size_t base = row * res_;
    for (auto i = static_cast<std::size_t>(row_lo_[row]);
         i <= static_cast<std::size_t>(row_hi_[row]); ++i) {
      const std::size_t k = base + i;
      if (point_epoch_[k] != epoch_) continue;
      ++points;
      if (!reassign) {
        // Topology untouched: same triangle, new vertex z.
        interp_[k] =
            detail::interpolate_point(dt, assign_[k], {xs[i], lat_.y(row)});
        touch_chunk(k);
        continue;
      }
      visit_fallback_below(k);
      if (strict_[k] == 0) relocate(k);  // Guard band, edge or vertex.
      touch_chunk(k);
      if (strict_[k] == 0) next_fallback_.push_back(k);
    }
  }
  if (reassign) {
    visit_fallback_below(res_ * res_);
    // Every previously non-strict point was visited, so the new fallback
    // list is exactly the visited points that ended non-strict, already
    // in ascending order.
    fallback_.swap(next_fallback_);
  }
  for (const std::uint32_t c : dirty_chunks_) refold_chunk(c);
  stats_.points_reevaluated += points;
  CPS_COUNT("core.delta.inc_points", points);
}

void IncrementalDelta::reraster(const geo::Delaunay& dt,
                                const std::vector<int>& tris, bool reassign) {
  ++stats_.events;
  CPS_COUNT("core.delta.inc_events", 1);
  ++epoch_;
  const std::size_t rows = mark_dirty(dt, tris, reassign);
  stats_.rows_touched += rows;
  CPS_COUNT("core.delta.inc_rows", rows);
  process_dirty(dt, reassign);
}

void IncrementalDelta::apply(const geo::Delaunay& dt,
                             const geo::InsertResult& r) {
  if (r.inserted) {
    // The created fan covers the cavity (and therefore every removed
    // triangle's region): re-rastering it catches every point whose
    // surface value or assignment the insertion could have moved.
    reraster(dt, r.created_triangles, /*reassign=*/true);
  } else if (r.z_changed) {
    // Duplicate-tolerance hit: topology untouched, surface moved over the
    // star.  Assignments and hint chains are already what a fresh sweep
    // produces; only the covered contributions need re-interpolating.
    reraster(dt, r.star_triangles, /*reassign=*/false);
  } else {
    ++stats_.events;  // A pure duplicate changes nothing.
    CPS_COUNT("core.delta.inc_events", 1);
  }
}

void IncrementalDelta::apply(const geo::Delaunay& dt,
                             const geo::RemoveResult& r) {
  reraster(dt, r.created_triangles, /*reassign=*/true);
}

void IncrementalDelta::apply(const geo::Delaunay& dt,
                             const geo::MoveResult& r) {
  reraster(dt, r.changed_triangles, /*reassign=*/true);
}

double IncrementalDelta::value() const noexcept {
  // Ascending chunk fold from 0.0, then the cell area — exactly
  // DeltaMetric::delta()'s reduce-and-scale arithmetic.
  double acc = 0.0;
  for (const double s : chunk_sums_) acc += s;
  return acc * lat_.hx() * lat_.hy();
}

}  // namespace cps::core

// Shared scan-conversion machinery of the δ raster sweep.  The sweep is
// written once, here: SpanPlan (alive triangles -> TriangleSoA -> sorted
// RowSpans), assign_row (phase 1: strict span assignment, hint-chained
// fallback walks) and interpolate_point (phase 2).  It has two callers,
// DeltaMetric::delta (core/delta.cpp), which folds |ref − z| per chunk,
// and IncrementalDelta's rebuild (core/delta_incremental.cpp), which
// records the per-point state its events update.  The tracker's events
// and FRA's rebucket (core/fra.cpp) share the span emitter.
//
// Every path must assign lattice points to triangles — and interpolate
// them — through the *same* arithmetic, or their sums drift by a bit and
// the oracle protocol (incremental ≡ fresh raster ≡ per-point walk,
// bitwise) collapses: the SoA mirror copies coordinates verbatim, the
// guard-range formulas keep their float expressions unreordered, and the
// interpolation helper replays interpolate_linear's barycentric
// expression term for term.  Edit with a bit-identity test in hand
// (tests/test_delta_incremental.cpp, tests/test_delta_equivalence.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "geometry/delaunay.hpp"
#include "geometry/predicates.hpp"
#include "numerics/quadrature.hpp"

namespace cps::core::detail {

/// Lattice rows per reduction chunk.  The raster sweep folds each chunk
/// serially in point order (assign_row restarts the locate hint at every
/// chunk head) and combines chunk partials in ascending order, at every
/// pool size; the tracker and the test-side walk reference replay that
/// layout to reproduce the sweep's bits.
inline constexpr std::size_t kChunkRows = 4;

/// One triangle's column interval on one lattice row (inclusive, with a
/// one-column conservative guard on each end — precision only affects how
/// many candidates a point tests, never which triangle it is assigned).
/// `slot` indexes the TriangleSoA mirror built for the same sweep.
struct RowSpan {
  int tri = -1;
  std::uint32_t slot = 0;
  int ilo = 0;
  int ihi = -1;
};

/// Structure-of-arrays mirror of the alive triangles: vertex coordinates,
/// vertex z values, and the hoisted barycentric denominator
/// orient2d_value(a, b, c) — one flat array per component, so the row
/// sweep's containment tests and interpolations stream 8-byte lanes
/// instead of chasing Delaunay vertex records through triangle indices.
/// Coordinates are copied verbatim and the interpolation below replays
/// interpolate_linear's exact expression on them, so assignments and δ
/// contributions stay bit-identical to the pointer-chasing form.
struct TriangleSoA {
  std::vector<double> ax, ay, bx, by, cx, cy;
  std::vector<double> za, zb, zc;
  std::vector<double> total;              // orient2d_value(a, b, c).
  std::vector<std::uint32_t> slot_of;     // Triangle id -> slot.

  void build(const geo::Delaunay& dt, const std::vector<int>& alive) {
    const std::size_t n = alive.size();
    ax.resize(n); ay.resize(n); bx.resize(n); by.resize(n);
    cx.resize(n); cy.resize(n); za.resize(n); zb.resize(n); zc.resize(n);
    total.resize(n);
    slot_of.assign(dt.triangle_slots(), 0);
    for (std::size_t s = 0; s < n; ++s) {
      const int tid = alive[s];
      const auto& t = dt.triangle(tid);
      const geo::Vec2 a = dt.vertex(t.v[0]).pos;
      const geo::Vec2 b = dt.vertex(t.v[1]).pos;
      const geo::Vec2 c = dt.vertex(t.v[2]).pos;
      ax[s] = a.x; ay[s] = a.y;
      bx[s] = b.x; by[s] = b.y;
      cx[s] = c.x; cy[s] = c.y;
      za[s] = dt.vertex(t.v[0]).z;
      zb[s] = dt.vertex(t.v[1]).z;
      zc[s] = dt.vertex(t.v[2]).z;
      total[s] = geo::orient2d_value(a, b, c);
      slot_of[static_cast<std::size_t>(tid)] =
          static_cast<std::uint32_t>(s);
    }
  }

  geo::Vec2 a(std::uint32_t s) const noexcept { return {ax[s], ay[s]}; }
  geo::Vec2 b(std::uint32_t s) const noexcept { return {bx[s], by[s]}; }
  geo::Vec2 c(std::uint32_t s) const noexcept { return {cx[s], cy[s]}; }
};

/// True when p is strictly inside triangle (a, b, c): every walk edge
/// predicate is strictly positive.  These are the same filtered
/// orient2d calls, in the same (B,C), (C,A), (A,B) edge order, that
/// Delaunay::walk_from evaluates, on the triangulation's coordinates (the
/// SoA mirror copies them verbatim) — so a strict pass here guarantees
/// the walk's closed-containment test accepts this triangle and rejects
/// every other (p is on no edge, and triangle interiors are disjoint),
/// i.e. locate_from returns this triangle for ANY hint.
///
/// The double-precision filter runs on all three edges before any branch:
/// a certified sign is exactly orient2d's answer, so three certified
/// positives are a pass and one certified negative a fail.  Only a point
/// the filter cannot settle (on or within rounding of an edge line) runs
/// the three full predicates.
inline bool strictly_inside(geo::Vec2 a, geo::Vec2 b, geo::Vec2 c,
                            geo::Vec2 p) {
  const int sa = geo::orient2d_filter(b, c, p);
  const int sb = geo::orient2d_filter(c, a, p);
  const int sc = geo::orient2d_filter(a, b, p);
  if (sa < 0 || sb < 0 || sc < 0) return false;
  if (sa > 0 && sb > 0 && sc > 0) return true;
  if (geo::orient2d(b, c, p) <= 0) return false;
  if (geo::orient2d(c, a, p) <= 0) return false;
  return geo::orient2d(a, b, p) > 0;
}

/// The same test at SoA slot s (the raster sweep's hot loop).
inline bool strictly_inside(const TriangleSoA& soa, std::uint32_t s,
                            geo::Vec2 p) {
  return strictly_inside(soa.a(s), soa.b(s), soa.c(s), p);
}

/// strictly_inside against the triangulation's own records: the same three
/// predicates on the same doubles (the SoA copies coordinates verbatim),
/// for callers that track assignments across topology changes and have no
/// current SoA mirror.
inline bool strictly_inside(const geo::Delaunay& dt, int tid, geo::Vec2 p) {
  const auto& t = dt.triangle(tid);
  return strictly_inside(dt.vertex(t.v[0]).pos, dt.vertex(t.v[1]).pos,
                         dt.vertex(t.v[2]).pos, p);
}

/// The raster phase-2 interpolation expression (barycentric weights via
/// the hoisted orient2d_value denominator), term for term — callers that
/// recompute a single point's contribution get the same bits the SIMD row
/// loop produced.  The degenerate-denominator guard replays the scalar
/// interpolate_linear all-zero-weights result.
inline double interpolate_point(double ax, double ay, double bx, double by,
                                double cx, double cy, double za, double zb,
                                double zc, double total, double px,
                                double py) {
  const double w0 = ((bx - px) * (cy - py) - (by - py) * (cx - px)) / total;
  const double w1 =
      ((px - ax) * (cy - ay) - (py - ay) * (cx - ax)) / total;
  const double w2 = 1.0 - w0 - w1;
  const double z = w0 * za + w1 * zb + w2 * zc;
  return total == 0.0 ? 0.0 : z;
}

/// interpolate_point at SoA slot s (both sweeps' phase 2).
inline double interpolate_point(const TriangleSoA& soa, std::uint32_t s,
                                double px, double py) {
  return interpolate_point(soa.ax[s], soa.ay[s], soa.bx[s], soa.by[s],
                           soa.cx[s], soa.cy[s], soa.za[s], soa.zb[s],
                           soa.zc[s], soa.total[s], px, py);
}

/// interpolate_point fed from the triangulation's records (verbatim the
/// doubles a SoA mirror would hold).
inline double interpolate_point(const geo::Delaunay& dt, int tid,
                                geo::Vec2 p) {
  const auto& t = dt.triangle(tid);
  const geo::Vec2 a = dt.vertex(t.v[0]).pos;
  const geo::Vec2 b = dt.vertex(t.v[1]).pos;
  const geo::Vec2 c = dt.vertex(t.v[2]).pos;
  return interpolate_point(a.x, a.y, b.x, b.y, c.x, c.y,
                           dt.vertex(t.v[0]).z, dt.vertex(t.v[1]).z,
                           dt.vertex(t.v[2]).z, geo::orient2d_value(a, b, c),
                           p.x, p.y);
}

/// A regular lattice as the span emitter sees it: point (i, j) sits at
/// (x0 + (i + offset)·hx, y0 + (j + offset)·hy) for 0 ≤ i < nx and
/// 0 ≤ j < ny.  The δ metric's midpoint lattice is offset 0.5 with pitch
/// w/res; FRA's candidate lattice is offset 0 with pitch w/(n−1), so its
/// first and last rows and columns lie on the region border.
struct SpanLattice {
  double x0 = 0.0;
  double y0 = 0.0;
  double hx = 0.0;
  double hy = 0.0;
  double offset = 0.0;
  long nx = 0;
  long ny = 0;
  /// Half-height of the band each row's span covers: a row at y emits the
  /// triangle's x-extent over [y − band, y + band], not only its slice at
  /// y.  A consumer that accepts points within a tolerance of a triangle
  /// (FRA's barycentric test) needs a band: a point just past a
  /// near-horizontal edge — or a row whose ordinate y(j) is a few ulps off
  /// the points it stands for, as FRA's last row is (11 · (100/11) =
  /// 100.00000000000001, while its points sit on y1 = 100) — can lie on a
  /// row that meets the triangle at one vertex only, or not at all.
  /// Strict-containment consumers (the δ sweeps) use 0, the slice at y
  /// alone: no point outside the closed triangle is strictly inside.
  double band = 0.0;

  double y(long j) const noexcept {
    return y0 + (static_cast<double>(j) + offset) * hy;
  }

  /// The δ metric's midpoint lattice over `region` (ordinates are exactly
  /// MidpointLattice::y's).
  static SpanLattice midpoint(const num::Rect& region,
                              const num::MidpointLattice& lat) {
    return {region.x0, region.y0, lat.hx(), lat.hy(), 0.5,
            static_cast<long>(lat.nx()), static_cast<long>(lat.ny()), 0.0};
  }

  /// FRA's n × n corner lattice over `region` (ordinates are exactly the
  /// planner's region.y0 + j · dy, except the last: the planner puts it on
  /// y1, at most a few ulps from y(n − 1)), with a half-pitch band.  A
  /// point that passes the barycentric test at Triangle::kContainsTol lies
  /// in the triangle scaled by 1 + 3 · kContainsTol about its centroid — a
  /// few 1e-9 diameters from it, far inside half a pitch.
  static SpanLattice corners(const num::Rect& region, std::size_t n) {
    const double hy = region.height() / static_cast<double>(n - 1);
    return {region.x0,
            region.y0,
            region.width() / static_cast<double>(n - 1),
            hy,
            0.0,
            static_cast<long>(n),
            static_cast<long>(n),
            0.5 * hy};
  }
};

/// Scan-converts one triangle into per-row inclusive column ranges over
/// `lat` and calls sink(j, ilo, ihi) for every non-empty row.  The ±1
/// row/column guard absorbs any rounding in the inverse map, so emitted
/// ranges are a conservative superset of the triangle's closed coverage.
/// One body serves the raster δ sweep's span emission, the incremental
/// tracker's dirty marking (which is what makes "dirty region ⊇ raster
/// coverage of the changed triangles" hold by construction) and FRA's
/// Garland–Heckbert rebucket.  For the midpoint lattice the float
/// expressions are the raster engine's original ones, term for term.
template <typename Sink>
void for_each_covered_range(geo::Vec2 a, geo::Vec2 b, geo::Vec2 c,
                            const SpanLattice& lat, Sink&& sink) {
  const double ymin = std::min({a.y, b.y, c.y});
  const double ymax = std::max({a.y, b.y, c.y});
  const long jlo = std::max(
      0L,
      static_cast<long>(std::floor((ymin - lat.y0) / lat.hy - lat.offset)) -
          1);
  const long jhi = std::min(
      lat.ny - 1,
      static_cast<long>(std::ceil((ymax - lat.y0) / lat.hy - lat.offset)) +
          1);
  const geo::Vec2 edges[3][2] = {{a, b}, {b, c}, {c, a}};
  double xlo = 0.0;
  double xhi = 0.0;
  // Widens [xlo, xhi] by the triangle's slice at ordinate y.
  const auto slice = [&](double y) {
    for (const auto& edge : edges) {
      const geo::Vec2 p = edge[0];
      const geo::Vec2 q = edge[1];
      if (std::min(p.y, q.y) > y || std::max(p.y, q.y) < y) continue;
      if (p.y == q.y) {
        xlo = std::min({xlo, p.x, q.x});
        xhi = std::max({xhi, p.x, q.x});
      } else {
        const double t = (y - p.y) / (q.y - p.y);
        const double x = p.x + t * (q.x - p.x);
        xlo = std::min(xlo, x);
        xhi = std::max(xhi, x);
      }
    }
  };
  for (long j = jlo; j <= jhi; ++j) {
    const double y = lat.y(j);
    xlo = std::numeric_limits<double>::infinity();
    xhi = -xlo;
    slice(y - lat.band);
    if (lat.band > 0.0) {
      // The extent over the band: its two end slices plus any vertex
      // strictly between them.
      slice(y + lat.band);
      for (const geo::Vec2 v : {a, b, c}) {
        if (v.y > y - lat.band && v.y < y + lat.band) {
          xlo = std::min(xlo, v.x);
          xhi = std::max(xhi, v.x);
        }
      }
    }
    if (xhi < xlo) continue;  // Row inside the guard band only.
    const long ilo = std::max(
        0L,
        static_cast<long>(std::floor((xlo - lat.x0) / lat.hx - lat.offset)) -
            1);
    const long ihi = std::min(
        lat.nx - 1,
        static_cast<long>(std::ceil((xhi - lat.x0) / lat.hx - lat.offset)) +
            1);
    if (ilo > ihi) continue;
    sink(j, ilo, ihi);
  }
}

/// The span plan of one δ sweep over the midpoint lattice `lat`: the
/// alive triangles mirrored into a TriangleSoA, each scan-converted into
/// RowSpans, every row sorted by (ilo, tri) — the order in which
/// assign_row tries its candidates.  Built once per sweep.
struct SpanPlan {
  TriangleSoA soa;
  std::vector<std::vector<RowSpan>> rows;  ///< Per lattice row.
  std::size_t spans = 0;                   ///< RowSpans emitted.

  SpanPlan(const geo::Delaunay& dt, const SpanLattice& lat)
      : rows(static_cast<std::size_t>(lat.ny)) {
    const std::vector<int> alive = dt.alive_triangles();
    soa.build(dt, alive);
    for (std::size_t slot = 0; slot < alive.size(); ++slot) {
      const auto s = static_cast<std::uint32_t>(slot);
      const int tid = alive[slot];
      for_each_covered_range(
          soa.a(s), soa.b(s), soa.c(s), lat, [&](long j, long ilo, long ihi) {
            rows[static_cast<std::size_t>(j)].push_back(
                RowSpan{tid, s, static_cast<int>(ilo), static_cast<int>(ihi)});
            ++spans;
          });
    }
    for (auto& spans_of_row : rows) {
      std::sort(spans_of_row.begin(), spans_of_row.end(),
                [](const RowSpan& l, const RowSpan& r) {
                  return l.ilo != r.ilo ? l.ilo < r.ilo : l.tri < r.tri;
                });
    }
  }
};

/// Phase 1 of the δ sweep on lattice row j (ordinate y, abscissae xs):
/// assigns every point to a triangle and calls
/// sink(i, slot, tri, strict) for it in column order.  A point strictly
/// inside one of the row's active spans takes that triangle (strict
/// containment is unique, so any candidate order gives the same answer);
/// any other point — on an edge or vertex, where closed containment is
/// ambiguous — falls back to dt.locate_from seeded with `hint`, exactly
/// the hint a per-point remembering walk carries there.  `hint` chains
/// through every assignment and restarts at −1 at each chunk head
/// (j % kChunkRows == 0), so a caller visiting a chunk's rows in order
/// replays the walk bit for bit whatever it carried in.  `active` is
/// caller-owned scratch.
template <typename Sink>
void assign_row(const geo::Delaunay& dt, const SpanPlan& plan,
                std::span<const double> xs, std::size_t j, double y,
                int& hint, std::vector<RowSpan>& active, Sink&& sink) {
  if (j % kChunkRows == 0) hint = -1;
  const std::vector<RowSpan>& spans = plan.rows[j];
  std::size_t next = 0;
  active.clear();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const int col = static_cast<int>(i);
    while (next < spans.size() && spans[next].ilo <= col) {
      active.push_back(spans[next++]);
    }
    const geo::Vec2 p{xs[i], y};
    int assigned = -1;
    std::uint32_t slot = 0;
    for (std::size_t k = 0; k < active.size();) {
      if (active[k].ihi < col) {
        active[k] = active.back();
        active.pop_back();
        continue;
      }
      if (strictly_inside(plan.soa, active[k].slot, p)) {
        assigned = active[k].tri;
        slot = active[k].slot;
        break;
      }
      ++k;
    }
    const bool strict = assigned >= 0;
    if (!strict) {
      assigned = dt.locate_from(p, hint);
      slot = plan.soa.slot_of[static_cast<std::size_t>(assigned)];
    }
    hint = assigned;
    sink(i, slot, assigned, strict);
  }
}

}  // namespace cps::core::detail

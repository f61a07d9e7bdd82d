#include "core/fra.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include <memory>

#include "core/curvature.hpp"
#include "core/delta_detail.hpp"
#include "core/delta_incremental.hpp"
#include "geometry/delaunay.hpp"
#include "graph/relay.hpp"
#include "graph/union_find.hpp"
#include "numerics/rng.hpp"
#include "obs/obs.hpp"
#include "parallel/spatial_hash.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::core {
namespace {

/// One lattice position competing for selection.
struct Candidate {
  geo::Vec2 pos;
  double f_value = 0.0;     // Referential surface value (sensed once).
  double curvature = 0.0;   // |G| (filled only for curvature measures).
  int triangle = -1;        // Containing triangle in the evolving DT.
  double error = 0.0;       // Local error |f - DT| at pos.
  bool used = false;        // Already selected (or coincides with a vertex).
};

/// Score of a used candidate in the selection score array.  Every
/// selection measure is non-negative (|f - DT|, |G|, their product), so
/// kUsedScore loses every ordered comparison and the argmax skips used
/// candidates without a mask load.
constexpr double kUsedScore = -1.0;

/// A triangle slot's best unused candidate under (score desc, index asc).
/// A slot that holds none — dead, or every member used — carries
/// {kUsedScore, lattice size}, which no candidate can lose to.
struct TriangleMax {
  double score;
  std::size_t index;
};

double interpolate_in(const geo::Delaunay& dt, int tri, geo::Vec2 p) {
  const auto& t = dt.triangle(tri);
  return geo::interpolate_linear(dt.triangle_geometry(tri),
                                 dt.vertex(t.v[0]).z, dt.vertex(t.v[1]).z,
                                 dt.vertex(t.v[2]).z, p);
}

/// Grid-accelerated maintenance of "distance from each candidate to the
/// nearest already-placed node".  A per-cell maximum of the maintained
/// distances lets note_added() skip every cell the new node cannot
/// improve: min-possible |candidate - p| >= max distance in the cell
/// implies no member's minimum can drop.  Values are the exact same
/// std::min-folded doubles the dense O(n) refresh produced.
class NearestNetGrid {
 public:
  NearestNetGrid(std::span<const geo::Vec2> points, double cell_size)
      : hash_(points, cell_size),
        cell_max_(std::max<std::size_t>(hash_.cell_count(), 1),
                  std::numeric_limits<double>::infinity()) {}

  void note_added(geo::Vec2 p, std::span<const geo::Vec2> points,
                  std::vector<double>& dist) {
    std::size_t scanned = 0;
    for (std::size_t c = 0; c < hash_.cell_count(); ++c) {
      double& cell_max = cell_max_[c];
      // inf * inf == inf keeps never-touched cells scannable.
      if (hash_.cell_distance_sq(p, c) >= cell_max * cell_max) continue;
      double new_max = 0.0;
      for (const std::uint32_t id : hash_.cell_members(c)) {
        double& d = dist[id];
        d = std::min(d, geo::distance(points[id], p));
        new_max = std::max(new_max, d);
        ++scanned;
      }
      cell_max = new_max;
    }
    CPS_COUNT("core.fra.dist_refresh_scanned", scanned);
  }

 private:
  par::SpatialHash hash_;
  std::vector<double> cell_max_;
};

}  // namespace

FraPlanner::FraPlanner(const FraConfig& config) : config_(config) {
  if (config.error_grid < 2) {
    throw std::invalid_argument("FraPlanner: error_grid < 2");
  }
  if (!(config.curvature_radius > 0.0)) {  // Rejects NaN too.
    throw std::invalid_argument("FraPlanner: curvature_radius <= 0");
  }
}

Deployment FraPlanner::plan(const field::Field& reference,
                            const PlanRequest& request) {
  return plan_detailed(reference, request).deployment;
}

FraResult FraPlanner::plan_detailed(const field::Field& reference,
                                    const PlanRequest& request) {
  if (!(request.rc > 0.0)) throw std::invalid_argument("FRA: rc <= 0");
  FraResult result;
  if (request.k == 0) return result;

  CPS_TIMER("core.fra.plan_total");
  const num::Rect& region = request.region;
  geo::Delaunay dt(region);
  for (int c = 0; c < geo::Delaunay::kCorners; ++c) {
    dt.set_vertex_z(c, reference.value(dt.vertex(c).pos));
  }

  // Optional what-if δ tracking (FraConfig::track_delta): seeded after the
  // corner values so the initial sweep already measures the f-valued
  // scaffolding; every insertion below feeds its cavity report through
  // track_insert so the trajectory costs O(changed area) per step.
  std::unique_ptr<IncrementalDelta> delta_tracker;
  if (config_.track_delta != nullptr) {
    delta_tracker = std::make_unique<IncrementalDelta>(*config_.track_delta,
                                                       reference, dt);
  }
  const auto track_insert = [&](const geo::InsertResult& ins) {
    if (delta_tracker == nullptr) return;
    CPS_TIMER("core.fra.delta_track");
    delta_tracker->apply(dt, ins);
    result.delta_trajectory.push_back(delta_tracker->value());
  };

  // Candidate lattice (the paper's sqrt(A) x sqrt(A) positions), bucketed
  // by containing triangle.
  const std::size_t n =
      request.lattice != 0 ? request.lattice : config_.error_grid;
  if (n < 2) throw std::invalid_argument("FRA: request lattice < 2");
  std::vector<Candidate> candidates(n * n);
  const double dx = region.width() / static_cast<double>(n - 1);
  const double dy = region.height() / static_cast<double>(n - 1);
  // The last column and row are the region border itself: x0 + (n−1)·dx
  // can round a few ulps past x1 (11 · (100/11) = 100.00000000000001),
  // which would put a node outside the region.
  std::vector<double> lattice_xs(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    lattice_xs[i] = region.x0 + static_cast<double>(i) * dx;
  }
  lattice_xs[n - 1] = region.x1;
  const auto lattice_y = [&](std::size_t j) {
    return j + 1 < n ? region.y0 + static_cast<double>(j) * dy : region.y1;
  };
  {
    CPS_TIMER("core.fra.sense_lattice");
    // Field implementations are const-thread-safe by contract (see
    // field/field.hpp), so the lattice sense is a parallel map over whole
    // rows, each sensed by one batched value_row call (bit-identical to
    // the per-point map by the batch contract).
    par::parallel_for_chunks(
        n,
        [&](std::size_t row_begin, std::size_t row_end) {
          std::vector<double> row(n);
          for (std::size_t j = row_begin; j < row_end; ++j) {
            const double y = lattice_y(j);
            reference.value_row(y, lattice_xs, row.data());
            CPS_COUNT("core.fra.batch_rows", 1);
            for (std::size_t i = 0; i < n; ++i) {
              Candidate& c = candidates[j * n + i];
              c.pos = {lattice_xs[i], y};
              c.f_value = row[i];
            }
          }
        },
        /*grain=*/1);
  }

  if (config_.measure == SelectionMeasure::kCurvature ||
      config_.measure == SelectionMeasure::kProduct) {
    CPS_TIMER("core.fra.curvature_pass");
    const CurvatureEstimator estimator(config_.curvature_radius);
    par::parallel_for(
        candidates.size(),
        [&](std::size_t ci) {
          candidates[ci].curvature =
              std::abs(estimator.gaussian_at(reference, candidates[ci].pos));
        },
        /*grain=*/64);  // A quadric fit per index: keep chunks small.
  }

  {
    CPS_TIMER("core.fra.initial_bucketing");
    // The seed mesh is Delaunay's two triangles split by the (c0, c2)
    // diagonal: triangle 0 = (c0, c1, c2), triangle 1 = (c0, c2, c3).  A
    // walk on the clamped point q crosses the diagonal by each triangle's
    // own edge predicate — orient2d(c2, c0, q) in triangle 0,
    // orient2d(c0, c2, q) in triangle 1 — and the border edges never
    // reject a point of the region.  When the two certify opposite sides,
    // every walk ends in the same triangle, whatever its start.  A point
    // on the diagonal (by either predicate) keeps the walk, from the
    // previous candidate's triangle as hint: its answer depends on it.
    const geo::Vec2 c0 = dt.vertex(0).pos;
    const geo::Vec2 c2 = dt.vertex(2).pos;
    int hint = -1;
    for (Candidate& c : candidates) {
      const geo::Vec2 q{std::clamp(c.pos.x, region.x0, region.x1),
                        std::clamp(c.pos.y, region.y0, region.y1)};
      const int side0 = geo::orient2d(c2, c0, q);
      const int side1 = geo::orient2d(c0, c2, q);
      if (side0 > 0 && side1 < 0) {
        c.triangle = 0;
      } else if (side0 < 0 && side1 > 0) {
        c.triangle = 1;
      } else {
        c.triangle = dt.locate_from(c.pos, hint);
      }
      hint = c.triangle;
      c.error = std::abs(c.f_value - interpolate_in(dt, c.triangle, c.pos));
    }
  }
  // Lattice corners coincide with scaffolding vertices: error 0, but mark
  // them used so kRandom never wastes a node on them.  The tolerance is
  // relative to the lattice pitch, so it holds at any coordinate scale;
  // every other candidate is at least one pitch from every corner.
  const double corner_tol = 1e-6 * std::min(dx, dy);
  for (const std::size_t ci :
       {std::size_t{0}, n - 1, (n - 1) * n, n * n - 1}) {
    for (int v = 0; v < geo::Delaunay::kCorners; ++v) {
      if (geo::distance(candidates[ci].pos, dt.vertex(v).pos) < corner_tol) {
        candidates[ci].used = true;
      }
    }
  }

  const auto score_of = [this](const Candidate& c) noexcept -> double {
    switch (config_.measure) {
      case SelectionMeasure::kLocalError:
        return c.error;
      case SelectionMeasure::kCurvature:
        return c.curvature;
      case SelectionMeasure::kProduct:
        return c.error * c.curvature;
      case SelectionMeasure::kRandom:
        break;
    }
    return 0.0;
  };

  // Selection scores, one per candidate (kUsedScore once used).  Curvature
  // scores never change after the initial pass and kRandom ignores
  // scores, so only the error-based measures rescore on rebuckets.
  const bool rescores = config_.measure == SelectionMeasure::kLocalError ||
                        config_.measure == SelectionMeasure::kProduct;
  std::vector<double> scores(candidates.size());
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    scores[ci] = candidates[ci].used ? kUsedScore : score_of(candidates[ci]);
  }

  // Each triangle slot's best unused candidate: the selection argmax runs
  // over these instead of the lattice.  `offer` folds one candidate into
  // its triangle's maximum; the strict (score, index) order makes the
  // result independent of the order candidates are offered in.
  const TriangleMax no_max{kUsedScore, candidates.size()};
  std::vector<TriangleMax> tri_max(dt.triangle_slots(), no_max);
  const auto offer = [&](std::size_t ci) {
    const Candidate& c = candidates[ci];
    if (c.used) return;
    TriangleMax& m = tri_max[static_cast<std::size_t>(c.triangle)];
    if (scores[ci] > m.score || (scores[ci] == m.score && ci < m.index)) {
      m = {scores[ci], ci};
    }
  };
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) offer(ci);

  // kRandom free-list: the unused candidate indices, kept ascending and
  // shrunk on used transitions instead of being rebuilt O(lattice) every
  // iteration.  Contents (and hence the RNG draw sequence) are identical
  // to the rebuilt vector's.
  std::vector<std::size_t> random_free;
  std::vector<std::size_t> random_scratch;
  if (config_.measure == SelectionMeasure::kRandom) {
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      if (!candidates[ci].used) random_free.push_back(ci);
    }
  }

  num::Rng rng(request.seed != 0 ? request.seed : config_.seed);
  std::vector<geo::Vec2> selected;
  selected.reserve(request.k);

  // Disk-graph component structure of `selected`, maintained incrementally
  // so the foresight step skips the Prim MST outright while the network is
  // connected, and otherwise hands the MST its component groups without
  // rebuilding the disk graph.  Same edge predicate as GeometricGraph:
  // distance_sq <= rc^2.
  graph::UnionFind net_uf(request.k);
  std::size_t net_components = 0;
  const double rc_sq = request.rc * request.rc;
  const auto register_selected = [&]() {
    if (!config_.foresight) return;  // Only foresight prices connectivity.
    const std::size_t i = selected.size() - 1;
    ++net_components;
    for (std::size_t j = 0; j < i; ++j) {
      if (geo::distance_sq(selected[j], selected[i]) <= rc_sq &&
          net_uf.unite(i, j)) {
        --net_components;
      }
    }
  };

  // Distance from each candidate to the nearest already-placed node,
  // maintained incrementally: the foresight step uses it to price a
  // candidate's worst-case connection cost in O(1).  The refresh is
  // grid-pruned (NearestNetGrid) instead of a dense O(n^2-lattice) scan.
  std::vector<double> dist_to_net(candidates.size(),
                                  std::numeric_limits<double>::infinity());
  std::vector<geo::Vec2> candidate_positions(candidates.size());
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    candidate_positions[ci] = candidates[ci].pos;
  }
  // ~4 lattice pitches per cell: coarse enough that the cell loop is
  // cheap, fine enough that the per-cell max prunes sharply once the
  // network densifies.
  NearestNetGrid net_grid(candidate_positions,
                          4.0 * std::max(dx, dy));
  const auto note_added = [&](geo::Vec2 p) {
    net_grid.note_added(p, candidate_positions, dist_to_net);
  };

  // Stores one candidate's score after its error changed; used candidates
  // keep kUsedScore.
  const auto rescore = [&](std::size_t ci) {
    if (rescores && !candidates[ci].used) {
      scores[ci] = score_of(candidates[ci]);
    }
  };

  // Garland–Heckbert update by scan conversion: only candidates whose
  // triangle died need re-location (among the fan of new triangles) and
  // an error refresh, and each created triangle finds them by visiting the
  // lattice points of its own row spans.  Every insertion — refinement
  // pick or foresight relay — must pass through here: a skipped rebucket
  // leaves candidates keyed to dead (later recycled) triangle slots with
  // stale errors, silently corrupting subsequent selections.
  const detail::SpanLattice grid = detail::SpanLattice::corners(region, n);
  // Visits every candidate in `tri`'s row spans: a superset of the
  // candidates the triangle contains within Triangle::kContainsTol.
  const auto for_each_spanned = [&](int tri, auto&& visit) {
    const auto& t = dt.triangle(tri);
    detail::for_each_covered_range(
        dt.vertex(t.v[0]).pos, dt.vertex(t.v[1]).pos, dt.vertex(t.v[2]).pos,
        grid, [&](long j, long ilo, long ihi) {
          const std::size_t row = static_cast<std::size_t>(j) * n;
          for (long i = ilo; i <= ihi; ++i) {
            visit(row + static_cast<std::size_t>(i));
          }
        });
  };
  // Recomputes the maximum of a live triangle from the candidates it
  // holds, first refreshing their errors when the surface over it moved.
  // Returns how many it holds.
  const auto rescan = [&](int tri, bool refresh_errors) {
    std::size_t held = 0;
    tri_max[static_cast<std::size_t>(tri)] = no_max;
    for_each_spanned(tri, [&](std::size_t ci) {
      Candidate& c = candidates[ci];
      if (c.triangle != tri) return;
      if (refresh_errors) {
        c.error = std::abs(c.f_value - interpolate_in(dt, tri, c.pos));
        rescore(ci);
      }
      offer(ci);
      ++held;
    });
    return held;
  };
  // removed_in[slot] == event marks the slots the current insertion
  // removed; a candidate still keyed to one is displaced.  Created and
  // removed ids never overlap within one insertion (Delaunay::insert).
  std::vector<std::uint32_t> removed_in(dt.triangle_slots(), 0);
  std::uint32_t event = 0;
  std::vector<std::size_t> missed;
  const auto rebucket_after = [&](const geo::InsertResult& ins) {
    CPS_TIMER("core.fra.rebucket");
    if (!ins.inserted) {
      if (!ins.z_changed) return;
      // Duplicate-tolerance hit that rewrote an existing vertex's z: the
      // topology (and with it every assignment) is intact, but the surface
      // over the vertex's star moved, so the candidates there hold stale
      // errors — the staleness bug the z_changed report closes.  Refresh
      // them in place; no relocation is needed.
      std::size_t refreshed = 0;
      for (const int tri : ins.star_triangles) {
        refreshed += rescan(tri, /*refresh_errors=*/true);
      }
      CPS_COUNT("core.fra.candidates_rebucketed", refreshed);
      return;
    }
    if (tri_max.size() < dt.triangle_slots()) {
      tri_max.resize(dt.triangle_slots(), no_max);
      removed_in.resize(dt.triangle_slots(), 0);
    }
    ++event;
    for (const int dead : ins.removed_triangles) {
      removed_in[static_cast<std::size_t>(dead)] = event;
      tri_max[static_cast<std::size_t>(dead)] = no_max;
    }
    // Created triangles in creation order: a displaced candidate takes
    // the first one that contains it (closed, with Triangle::contains'
    // tolerance), and its error reuses the barycentric of that test —
    // interpolate_linear's own.  One that fails stays displaced for the
    // later fan triangles.
    std::size_t moved = 0;
    missed.clear();
    for (const int fresh : ins.created_triangles) {
      const geo::Triangle geometry = dt.triangle_geometry(fresh);
      const auto& t = dt.triangle(fresh);
      const double za = dt.vertex(t.v[0]).z;
      const double zb = dt.vertex(t.v[1]).z;
      const double zc = dt.vertex(t.v[2]).z;
      for_each_spanned(fresh, [&](std::size_t ci) {
        Candidate& c = candidates[ci];
        if (removed_in[static_cast<std::size_t>(c.triangle)] != event) return;
        const geo::Barycentric w = geometry.barycentric(c.pos);
        if (!w.inside(geo::Triangle::kContainsTol)) {
          missed.push_back(ci);
          return;
        }
        c.triangle = fresh;
        c.error =
            std::abs(c.f_value - geo::interpolate_linear(w, za, zb, zc));
        rescore(ci);
        offer(ci);
        ++moved;
      });
    }
    // Numerical corner case: a point on the cavity boundary that no fan
    // triangle takes; a full locate resolves it, in ascending index order.
    std::sort(missed.begin(), missed.end());
    missed.erase(std::unique(missed.begin(), missed.end()), missed.end());
    std::size_t fallbacks = 0;
    for (const std::size_t ci : missed) {
      Candidate& c = candidates[ci];
      if (removed_in[static_cast<std::size_t>(c.triangle)] != event) continue;
      c.triangle = dt.locate(c.pos);
      c.error = std::abs(c.f_value - interpolate_in(dt, c.triangle, c.pos));
      rescore(ci);
      offer(ci);
      ++fallbacks;
    }
    CPS_COUNT("core.fra.candidates_rebucketed", moved + fallbacks);
    CPS_COUNT("core.fra.rebucket_fallbacks", fallbacks);
  };

  // Spends up to `budget` nodes on the *caller-computed* relay plan.  The
  // plan the foresight check just priced is exactly the plan to execute —
  // recomputing the Prim MST here (as the seed code did) doubled the
  // foresight cost for no behavioural difference, since `selected` cannot
  // change between the check and the placement.
  const auto place_relays = [&](std::size_t budget,
                                const graph::RelayPlan& plan) {
    const std::size_t count = std::min(budget, plan.count);
    for (std::size_t r = 0; r < count; ++r) {
      const geo::Vec2 p = plan.positions[r];
      const geo::InsertResult ins = dt.insert(p, reference.value(p));
      track_insert(ins);
      rebucket_after(ins);
      selected.push_back(p);
      register_selected();
      note_added(p);
      result.steps.push_back(FraStep{p, 0.0, true});
      ++result.relay_count;
    }
    CPS_COUNT("core.fra.relays_inserted", count);
    return count;
  };

  CPS_TIMER("core.fra.refine_loop");
  [[maybe_unused]] std::size_t timeline_iteration = 0;
  while (selected.size() < request.k) {
    CPS_COUNT("core.fra.iterations", 1);
    // Iteration boundary for the telemetry timeline: each sample's deltas
    // (rebuckets, scans) cover the *previous* iteration; the first covers
    // lattice seeding, the closing sample after the loop the final
    // iteration plus the assignment audit.
    CPS_TIMELINE_SAMPLE("core.fra.iteration", timeline_iteration++);
    // Foresight (Table 1 lines 5-8): when the remaining budget is no more
    // than the relay count needed for connectivity, spend it on relays.
    // On top of the paper's trigger, candidate selection below only
    // considers positions whose worst-case connection cost (relays along
    // the straight line to the nearest placed node) still fits in the
    // post-selection budget — without this, one far-away max-error pick
    // can make connectivity unaffordable in a single step.
    std::size_t candidate_relay_budget = request.k;  // Unbounded pre-seed.
    graph::RelayPlan plan;  // Empty == connected; reused by the retry path.
    if (config_.foresight && !selected.empty()) {
      const std::size_t remaining = request.k - selected.size();
      // The union-find already knows the disk graph's components: the
      // Prim MST only runs while several remain to stitch, over groups
      // read off the union-find in GeometricGraph::components' order —
      // the plan graph::plan_relays(selected, rc) would return.
      if (net_components > 1) {
        CPS_COUNT("core.fra.mst_recomputes", 1);
        plan = graph::plan_group_relays(
            graph::component_groups(net_uf, selected), request.rc);
      }
      if (plan.count >= remaining) {
        CPS_COUNT("core.fra.foresight_triggers", 1);
        CPS_TRACE_INSTANT("core.fra.foresight_trigger");
        place_relays(remaining, plan);
        break;
      }
      candidate_relay_budget = remaining - 1 - plan.count;
    }
    const auto affordable = [&](std::size_t ci) {
      if (!config_.foresight || selected.empty()) return true;
      if (dist_to_net[ci] <= request.rc) return true;
      return graph::relays_for_gap(dist_to_net[ci], request.rc) <=
             candidate_relay_budget;
    };

    // Select the best unused, affordable candidate under the measure.
    std::size_t best = candidates.size();
    if (config_.measure == SelectionMeasure::kRandom) {
      // Pick uniformly from the incrementally maintained free-list; only
      // the foresight filter (iteration-dependent) needs a fresh pass,
      // and it reproduces the rebuilt vector's contents exactly, so the
      // RNG consumes the same draws as the O(lattice) rebuild did.
      const std::vector<std::size_t>* pool = &random_free;
      if (config_.foresight && !selected.empty()) {
        random_scratch.clear();
        for (const std::size_t ci : random_free) {
          if (affordable(ci)) random_scratch.push_back(ci);
        }
        pool = &random_scratch;
      }
      if (!pool->empty()) {
        best = (*pool)[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(pool->size()) - 1))];
      }
    } else {
      // Argmax over the triangle maxima under (score desc, index asc): the
      // first maximum in lattice order over all unused candidates.  If
      // the winner is affordable it *is* the greedy argmax.  Only when it
      // is unaffordable (a far-from-net pick under a tight relay budget —
      // rare) does a filtered first-maximum rescan of the score array run;
      // used candidates sit at kUsedScore there and lose every compare.
      std::size_t scanned = tri_max.size();
      double best_score = kUsedScore;
      for (const TriangleMax& m : tri_max) {
        if (m.score > best_score ||
            (m.score == best_score && m.index < best)) {
          best_score = m.score;
          best = m.index;
        }
      }
      if (best != candidates.size() && !affordable(best)) {
        CPS_COUNT("core.fra.affordable_rescans", 1);
        scanned += candidates.size();
        best = candidates.size();
        best_score = kUsedScore;
        for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
          if (scores[ci] > best_score && affordable(ci)) {
            best_score = scores[ci];
            best = ci;
          }
        }
      }
      CPS_COUNT("core.fra.candidates_scanned", scanned);
    }
    if (best == candidates.size()) {
      // No affordable candidate: connect what exists to free the budget,
      // then retry; a lattice with nothing left at all ends the plan.
      // `selected` has not changed since the foresight check priced
      // `plan`, so the plan is reused verbatim — no second Prim run.
      if (config_.foresight && !selected.empty() &&
          place_relays(request.k - selected.size(), plan) > 0) {
        continue;
      }
      break;
    }

    Candidate& chosen = candidates[best];
    chosen.used = true;
    scores[best] = kUsedScore;
    if (config_.measure == SelectionMeasure::kRandom) {
      random_free.erase(std::lower_bound(random_free.begin(),
                                         random_free.end(), best));
    }
    note_added(chosen.pos);
    const double score = score_of(chosen);
    selected.push_back(chosen.pos);
    register_selected();
    result.steps.push_back(FraStep{chosen.pos, score, false});
    // Per-iteration trajectory the paper's Figs. 5-7 discussion is about:
    // the refinement error at the point just judged worst, and how the
    // triangulation grows around it.
    CPS_HIST("core.fra.selected_score", score);
    CPS_TRACE_COUNTER("core.fra.max_local_error", chosen.error);
    CPS_TRACE_COUNTER("core.fra.triangle_count", dt.triangle_count());

    {
      const geo::InsertResult ins = dt.insert(chosen.pos, chosen.f_value);
      track_insert(ins);
      rebucket_after(ins);
    }
    // A triangle that survives its own pick's insertion (a duplicate
    // insert at an existing vertex) still names the now-used pick as its
    // maximum.
    if (tri_max[static_cast<std::size_t>(chosen.triangle)].index == best) {
      rescan(chosen.triangle, /*refresh_errors=*/false);
    }
  }

  // Assignment audit (cheap: one contains() per candidate).  A nonzero
  // count means some candidate still references a dead or reused triangle
  // slot — a rebucket that missed it (a skipped insertion, or a span that
  // failed to cover it); tests assert this is 0.
  {
    std::size_t stale = 0;
    for (const auto& c : candidates) {
      const bool consistent =
          c.triangle >= 0 &&
          c.triangle < static_cast<int>(dt.triangle_slots()) &&
          dt.triangle_alive(c.triangle) &&
          dt.triangle_geometry(c.triangle).contains(c.pos);
      if (!consistent) ++stale;
    }
    result.stale_candidates = stale;
    CPS_GAUGE("core.fra.stale_candidates", stale);
  }

  if (delta_tracker != nullptr) {
    // An empty trajectory (nothing selectable) still has the corners-only
    // sweep to report — the same value delta_of_deployment gives an empty
    // deployment.
    result.final_delta = result.delta_trajectory.empty()
                             ? delta_tracker->value()
                             : result.delta_trajectory.back();
    result.delta_stats = delta_tracker->stats();
  }
  CPS_GAUGE("core.fra.triangle_count", dt.triangle_count());
  CPS_GAUGE("core.fra.vertex_count", dt.vertex_count());
  CPS_TIMELINE_SAMPLE("core.fra.iteration", timeline_iteration);
  result.deployment.positions = std::move(selected);
  return result;
}

}  // namespace cps::core

#include "geometry/delaunay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "geometry/predicates.hpp"
#include "obs/obs.hpp"

namespace cps::geo {
namespace {

constexpr double kBoundsTol = 1e-9;

}  // namespace

Delaunay::Delaunay(const num::Rect& bounds) : bounds_(bounds) {
  if (bounds.width() <= 0.0 || bounds.height() <= 0.0) {
    throw std::invalid_argument("Delaunay: empty region");
  }
  vertices_ = {
      {{bounds.x0, bounds.y0}, 0.0},
      {{bounds.x1, bounds.y0}, 0.0},
      {{bounds.x1, bounds.y1}, 0.0},
      {{bounds.x0, bounds.y1}, 0.0},
  };
  vertex_alive_.assign(vertices_.size(), 1);
  // Two seed triangles split by the (0, 2) diagonal, both CCW.
  triangles_.resize(2);
  triangles_[0] = DtTriangle{{0, 1, 2}, {-1, 1, -1}, true};
  triangles_[1] = DtTriangle{{0, 2, 3}, {-1, -1, 0}, true};
  alive_count_ = 2;
  cavity_epoch_.assign(2, 0);
  cavity_state_.assign(2, 0);
}

int Delaunay::alloc_triangle() {
  if (!free_list_.empty()) {
    const int id = free_list_.back();
    free_list_.pop_back();
    triangles_[static_cast<std::size_t>(id)].alive = true;
    ++alive_count_;
    return id;
  }
  triangles_.push_back(DtTriangle{});
  triangles_.back().alive = true;
  cavity_epoch_.push_back(0);
  cavity_state_.push_back(0);
  ++alive_count_;
  return static_cast<int>(triangles_.size()) - 1;
}

void Delaunay::free_triangle(int id) {
  auto& t = triangles_[static_cast<std::size_t>(id)];
  t.alive = false;
  t.nbr = {-1, -1, -1};
  free_list_.push_back(id);
  --alive_count_;
  // A shared walk hint referencing the freed slot must not survive: the
  // free list recycles slots, and a later locate() would otherwise walk
  // from whatever unrelated triangle reuses this id.  insert() refreshes
  // the hint after its frees, but remove() relies on this reset.
  if (locate_hint_ == id) locate_hint_ = -1;
}

Triangle Delaunay::triangle_geometry(int id) const {
  const auto& t = triangles_.at(static_cast<std::size_t>(id));
  if (!t.alive) throw std::invalid_argument("triangle_geometry: dead id");
  return Triangle(vertices_[static_cast<std::size_t>(t.v[0])].pos,
                  vertices_[static_cast<std::size_t>(t.v[1])].pos,
                  vertices_[static_cast<std::size_t>(t.v[2])].pos);
}

std::vector<int> Delaunay::alive_triangles() const {
  std::vector<int> out;
  out.reserve(alive_count_);
  for (std::size_t i = 0; i < triangles_.size(); ++i) {
    if (triangles_[i].alive) out.push_back(static_cast<int>(i));
  }
  return out;
}

void Delaunay::set_vertex_z(int id, double z) {
  vertices_.at(static_cast<std::size_t>(id)).z = z;
}

int Delaunay::walk_from(int start, Vec2 p) const {
  int current = start;
  int previous = -1;
  CPS_COUNT("geometry.delaunay.locates", 1);
  // A straight walk over a Delaunay triangulation of a convex region
  // terminates; the step cap only guards against degenerate adjacency bugs.
  const std::size_t max_steps = 4 * triangles_.size() + 16;
  for (std::size_t step = 0; step < max_steps; ++step) {
    CPS_COUNT("geometry.delaunay.walk_steps", 1);
    const auto& t = triangles_[static_cast<std::size_t>(current)];
    int next = -1;
    bool inside = true;
    for (int e = 0; e < 3; ++e) {
      const Vec2 a =
          vertices_[static_cast<std::size_t>(t.v[(e + 1) % 3])].pos;
      const Vec2 b =
          vertices_[static_cast<std::size_t>(t.v[(e + 2) % 3])].pos;
      if (orient2d(a, b, p) < 0) {
        inside = false;
        const int candidate = t.nbr[static_cast<std::size_t>(e)];
        if (candidate != -1 && candidate != previous) {
          next = candidate;
          break;
        }
      }
    }
    if (inside) return current;
    if (next == -1) break;  // Fall through to the exhaustive scan.
    previous = current;
    current = next;
  }
  // Exhaustive fallback — hit only under adversarial degeneracy.
  for (std::size_t i = 0; i < triangles_.size(); ++i) {
    if (!triangles_[i].alive) continue;
    if (triangle_geometry(static_cast<int>(i)).contains(p)) {
      return static_cast<int>(i);
    }
  }
  throw std::logic_error("Delaunay::locate: walk failed for in-region point");
}

int Delaunay::locate(Vec2 p, int hint) const {
  const int found = locate_from(
      p, hint < 0 || hint >= static_cast<int>(triangles_.size()) ||
                 !triangles_[static_cast<std::size_t>(hint)].alive
             ? locate_hint_
             : hint);
  locate_hint_ = found;
  return found;
}

int Delaunay::locate_from(Vec2 p, int hint) const {
  if (p.x < bounds_.x0 - kBoundsTol || p.x > bounds_.x1 + kBoundsTol ||
      p.y < bounds_.y0 - kBoundsTol || p.y > bounds_.y1 + kBoundsTol) {
    throw std::invalid_argument("Delaunay::locate: point outside region");
  }
  const Vec2 q{std::clamp(p.x, bounds_.x0, bounds_.x1),
               std::clamp(p.y, bounds_.y0, bounds_.y1)};
  int start = hint;
  if (start < 0 || start >= static_cast<int>(triangles_.size()) ||
      !triangles_[static_cast<std::size_t>(start)].alive) {
    start = -1;
    for (std::size_t i = 0; i < triangles_.size(); ++i) {
      if (triangles_[i].alive) {
        start = static_cast<int>(i);
        break;
      }
    }
  }
  return walk_from(start, q);
}

double Delaunay::interpolate(Vec2 p) const {
  const int tid = locate(p);
  const auto& t = triangles_[static_cast<std::size_t>(tid)];
  return interpolate_linear(
      triangle_geometry(tid), vertices_[static_cast<std::size_t>(t.v[0])].z,
      vertices_[static_cast<std::size_t>(t.v[1])].z,
      vertices_[static_cast<std::size_t>(t.v[2])].z, p);
}

bool Delaunay::in_cavity(int tri, Vec2 p) const {
  if (cavity_epoch_[static_cast<std::size_t>(tri)] == epoch_) {
    return cavity_state_[static_cast<std::size_t>(tri)] == 1;
  }
  const auto& t = triangles_[static_cast<std::size_t>(tri)];
  CPS_COUNT("geometry.delaunay.incircle_calls", 1);
  const bool in =
      incircle(vertices_[static_cast<std::size_t>(t.v[0])].pos,
               vertices_[static_cast<std::size_t>(t.v[1])].pos,
               vertices_[static_cast<std::size_t>(t.v[2])].pos, p) > 0;
  cavity_epoch_[static_cast<std::size_t>(tri)] = epoch_;
  cavity_state_[static_cast<std::size_t>(tri)] = in ? 1 : 0;
  return in;
}

InsertResult Delaunay::insert(Vec2 p, double z, double duplicate_tol) {
  const int containing = locate(p);  // Validates bounds.
  InsertResult result;

  // Duplicate check against the containing triangle's vertices: a
  // coincident point always lands in a triangle incident to the original.
  {
    const auto& t = triangles_[static_cast<std::size_t>(containing)];
    for (const int vid : t.v) {
      if (distance(vertices_[static_cast<std::size_t>(vid)].pos, p) <=
          duplicate_tol) {
        const double old_z = vertices_[static_cast<std::size_t>(vid)].z;
        vertices_[static_cast<std::size_t>(vid)].z = z;
        result.vertex = vid;
        result.inserted = false;
        // The topology did not change, but a different z moves the
        // interpolated surface over the vertex's whole star.  Value
        // compare: a +-0.0 swap cannot change any interpolated bit's
        // absolute difference, and reporting it would cost a star walk.
        result.z_changed = z != old_z;
        if (result.z_changed) {
          result.star_triangles = vertex_star(vid);
          CPS_COUNT("geometry.delaunay.duplicate_z_updates", 1);
        }
        return result;
      }
    }
  }

  const int new_vertex = static_cast<int>(vertices_.size());
  vertices_.push_back(DtVertex{p, z});
  vertex_alive_.push_back(1);

  // Grow the cavity from the containing triangle.  The containing triangle
  // is force-included: mathematically p (strictly inside or on an edge of
  // it) is strictly inside its circumcircle, but the filtered predicate may
  // report a near-degenerate case as "on".
  ++epoch_;
  if (epoch_ == 0) {  // Wrapped: reset stamps.
    std::fill(cavity_epoch_.begin(), cavity_epoch_.end(), 0u);
    epoch_ = 1;
  }
  cavity_epoch_[static_cast<std::size_t>(containing)] = epoch_;
  cavity_state_[static_cast<std::size_t>(containing)] = 1;

  std::vector<int> cavity{containing};
  struct BoundaryEdge {
    int a;        // Edge endpoints, CCW as seen from inside the cavity.
    int b;
    int outside;  // Triangle beyond the edge (-1 on the region border).
  };
  std::vector<BoundaryEdge> boundary;
  for (std::size_t idx = 0; idx < cavity.size(); ++idx) {
    const int tid = cavity[idx];
    const auto t = triangles_[static_cast<std::size_t>(tid)];  // Copy: the
    // vector may reallocate later, and we only read this snapshot.
    for (int e = 0; e < 3; ++e) {
      const int n = t.nbr[static_cast<std::size_t>(e)];
      bool neighbor_in = false;
      if (n != -1) {
        // A neighbour not yet stamped this epoch is being classified for
        // the first time; that is exactly when it may join the frontier.
        const bool first_visit =
            cavity_epoch_[static_cast<std::size_t>(n)] != epoch_;
        neighbor_in = in_cavity(n, p);
        if (neighbor_in && first_visit) cavity.push_back(n);
      }
      if (!neighbor_in) {
        boundary.push_back(
            BoundaryEdge{t.v[static_cast<std::size_t>((e + 1) % 3)],
                         t.v[static_cast<std::size_t>((e + 2) % 3)], n});
      }
    }
  }

  // A point on a region-border edge leaves that edge on the cavity
  // boundary but collinear with p; the (p, a, b) triangle it would spawn is
  // degenerate.  A point a few ulps past the border (inside the bounds
  // tolerance, as a lattice row x0 + j * dx can land) would spawn a
  // clockwise sliver outside the region.  Drop such edges — the fan then
  // forms an open chain whose two dangling (p, endpoint) edges lie on the
  // region border.
  std::erase_if(boundary, [&](const BoundaryEdge& edge) {
    return orient2d(vertices_[static_cast<std::size_t>(edge.a)].pos,
                    vertices_[static_cast<std::size_t>(edge.b)].pos, p) <= 0;
  });

  // Retriangulate: one new triangle (p, a, b) per boundary edge.  New
  // triangles are allocated before the cavity is freed so that ids in
  // `removed_triangles` and `created_triangles` never overlap (callers
  // re-bucket samples keyed by these ids).
  std::unordered_map<int, int> tri_starting_at;  // a -> new triangle id
  std::unordered_map<int, int> tri_ending_at;    // b -> new triangle id
  tri_starting_at.reserve(boundary.size());
  tri_ending_at.reserve(boundary.size());

  std::vector<int> created;
  created.reserve(boundary.size());
  for (const auto& edge : boundary) {
    const int tid = alloc_triangle();
    auto& t = triangles_[static_cast<std::size_t>(tid)];
    t.v = {new_vertex, edge.a, edge.b};
    t.nbr = {edge.outside, -1, -1};
    created.push_back(tid);
    tri_starting_at[edge.a] = tid;
    tri_ending_at[edge.b] = tid;
    // Re-point the outside triangle's adjacency at the replacement.
    if (edge.outside != -1) {
      auto& out = triangles_[static_cast<std::size_t>(edge.outside)];
      for (int e = 0; e < 3; ++e) {
        const int va = out.v[static_cast<std::size_t>((e + 1) % 3)];
        const int vb = out.v[static_cast<std::size_t>((e + 2) % 3)];
        if ((va == edge.b && vb == edge.a) || (va == edge.a && vb == edge.b)) {
          out.nbr[static_cast<std::size_t>(e)] = tid;
          break;
        }
      }
    }
  }

  // Stitch the fan: triangle (p, a, b) meets the next one across edge
  // (p, b) and the previous across edge (p, a).  A missing link means the
  // chain is open there (p landed on the region border) and that edge lies
  // on the border: -1.
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    const auto& edge = boundary[i];
    auto& t = triangles_[static_cast<std::size_t>(created[i])];
    const auto next = tri_starting_at.find(edge.b);
    const auto prev = tri_ending_at.find(edge.a);
    t.nbr[1] = next == tri_starting_at.end() ? -1 : next->second;
    t.nbr[2] = prev == tri_ending_at.end() ? -1 : prev->second;
  }

  for (const int tid : cavity) free_triangle(tid);

  // Bowyer-Watson re-triangulates cavities instead of flipping edges; the
  // cavity size is the flip-count equivalent (a cavity of c triangles
  // replaced by a fan of c + 2 corresponds to c - 1 Lawson flips).
  CPS_COUNT("geometry.delaunay.inserts", 1);
  CPS_COUNT("geometry.delaunay.cavity_triangles", cavity.size());
  CPS_COUNT("geometry.delaunay.created_triangles", created.size());

  locate_hint_ = created.empty() ? locate_hint_ : created.front();
  result.vertex = new_vertex;
  result.inserted = true;
  result.removed_triangles = std::move(cavity);
  result.created_triangles = std::move(created);
  return result;
}

std::vector<int> Delaunay::collect_star(int vertex,
                                        std::vector<LinkEdge>* chain) const {
  if (vertex < 0 || vertex >= static_cast<int>(vertices_.size()) ||
      vertex_alive_[static_cast<std::size_t>(vertex)] == 0) {
    throw std::invalid_argument("Delaunay::vertex_star: dead vertex id");
  }
  // Seed triangle: the walk lands on a triangle whose closure contains the
  // vertex position, which in a valid triangulation is always incident to
  // the vertex (an edge of a non-incident triangle cannot pass through a
  // vertex).  The scan fallback guards degenerate geometry anyway.
  int seed = locate_from(vertices_[static_cast<std::size_t>(vertex)].pos, -1);
  const auto incident = [&](int tid) {
    const auto& t = triangles_[static_cast<std::size_t>(tid)];
    return t.v[0] == vertex || t.v[1] == vertex || t.v[2] == vertex;
  };
  if (!incident(seed)) {
    seed = -1;
    for (std::size_t i = 0; i < triangles_.size(); ++i) {
      if (triangles_[i].alive && incident(static_cast<int>(i))) {
        seed = static_cast<int>(i);
        break;
      }
    }
    if (seed == -1) {
      throw std::logic_error("Delaunay::vertex_star: no incident triangle");
    }
  }
  const auto local_index = [&](int tid) {
    const auto& t = triangles_[static_cast<std::size_t>(tid)];
    for (int i = 0; i < 3; ++i) {
      if (t.v[static_cast<std::size_t>(i)] == vertex) return i;
    }
    throw std::logic_error("Delaunay::vertex_star: lost incidence");
  };
  // Walk the ring CCW: triangle (v, a, b) hands over across edge (v, b)
  // (the neighbor opposite a).  A -1 crossing means v lies on the region
  // border; the ring is then an open fan walked backwards too.
  std::vector<int> star;
  std::vector<int> link;  // link[i] = a of star[i]; one extra b at the end
                          // when the fan is open.
  int current = seed;
  bool open = false;
  do {
    star.push_back(current);
    const int i = local_index(current);
    const auto& t = triangles_[static_cast<std::size_t>(current)];
    link.push_back(t.v[static_cast<std::size_t>((i + 1) % 3)]);
    const int next = t.nbr[static_cast<std::size_t>((i + 1) % 3)];
    if (next == -1) {
      link.push_back(t.v[static_cast<std::size_t>((i + 2) % 3)]);
      open = true;
      break;
    }
    current = next;
  } while (current != seed);
  if (open) {
    // Walk backwards from the seed across edge (v, a) until the border.
    current = seed;
    for (;;) {
      const int i = local_index(current);
      const auto& t = triangles_[static_cast<std::size_t>(current)];
      const int prev = t.nbr[static_cast<std::size_t>((i + 2) % 3)];
      if (prev == -1) break;
      const int pi = local_index(prev);
      const auto& pt = triangles_[static_cast<std::size_t>(prev)];
      star.insert(star.begin(), prev);
      link.insert(link.begin(), pt.v[static_cast<std::size_t>((pi + 1) % 3)]);
      current = prev;
    }
  }
  if (chain != nullptr) {
    // chain[j] pairs link vertex a_j with the triangle beyond link edge
    // (a_j, a_{j+1}) — star[j]'s neighbor opposite v.  A closed ring's
    // chain closes itself; an open fan closes with the border segment
    // (collinear through v), outside -1.
    chain->clear();
    chain->reserve(link.size());
    for (std::size_t j = 0; j < star.size(); ++j) {
      const int tid = star[j];
      const int i = local_index(tid);
      chain->push_back(LinkEdge{
          link[j],
          triangles_[static_cast<std::size_t>(tid)]
              .nbr[static_cast<std::size_t>(i)]});
    }
    if (open) chain->push_back(LinkEdge{link.back(), -1});
  }
  return star;
}

std::vector<int> Delaunay::vertex_star(int vertex) const {
  return collect_star(vertex, nullptr);
}

RemoveResult Delaunay::remove(int vertex) {
  if (vertex < kCorners) {
    throw std::invalid_argument(
        "Delaunay::remove: corner scaffolding cannot be removed");
  }
  RemoveResult result;
  result.vertex = vertex;
  std::vector<LinkEdge> chain;
  result.removed_triangles = collect_star(vertex, &chain);  // Validates id.

  // Re-points `tid`'s adjacency across the (va, vb) edge at `to`.  Serves
  // both the original outside triangles and freshly clipped ears.
  const auto patch = [&](int tid, int va, int vb, int to) {
    if (tid == -1) return;
    auto& t = triangles_[static_cast<std::size_t>(tid)];
    for (int e = 0; e < 3; ++e) {
      const int wa = t.v[static_cast<std::size_t>((e + 1) % 3)];
      const int wb = t.v[static_cast<std::size_t>((e + 2) % 3)];
      if ((wa == va && wb == vb) || (wa == vb && wb == va)) {
        t.nbr[static_cast<std::size_t>(e)] = to;
        return;
      }
    }
    throw std::logic_error("Delaunay::remove: adjacency patch missed");
  };
  const auto pos_of = [&](int vid) {
    return vertices_[static_cast<std::size_t>(vid)].pos;
  };

  // Ear-clip the hole polygon (the link chain, CCW around the removed
  // vertex; border fans close with a collinear border segment).  An ear is
  // clipped only when it is CCW and no other chain vertex lies strictly
  // inside its circumcircle — the Delaunay ear rule, which restores the
  // empty-circumcircle property over the hole.  Cocircular degeneracies
  // can starve that rule, so a second pass accepts any CCW ear whose
  // closed triangle is empty of chain vertices (still a valid, if
  // non-unique, triangulation).  New ears are allocated before the star is
  // freed so removed/created ids never overlap.
  std::vector<int> created;
  created.reserve(chain.size() > 2 ? chain.size() - 2 : 0);
  const auto clip_at = [&](std::size_t j) {
    const std::size_t m = chain.size();
    const std::size_t jp = (j + m - 1) % m;
    const std::size_t jn = (j + 1) % m;
    const int tid = alloc_triangle();
    auto& t = triangles_[static_cast<std::size_t>(tid)];
    t.v = {chain[jp].vertex, chain[j].vertex, chain[jn].vertex};
    t.nbr = {chain[j].outside, -1, chain[jp].outside};
    patch(chain[j].outside, chain[j].vertex, chain[jn].vertex, tid);
    patch(chain[jp].outside, chain[jp].vertex, chain[j].vertex, tid);
    created.push_back(tid);
    chain[jp].outside = tid;  // Edge (jp, jn) now borders the new ear.
    chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(j));
  };
  while (chain.size() > 3) {
    const std::size_t m = chain.size();
    std::size_t pick = m;
    for (std::size_t j = 0; j < m && pick == m; ++j) {
      const Vec2 a = pos_of(chain[(j + m - 1) % m].vertex);
      const Vec2 b = pos_of(chain[j].vertex);
      const Vec2 c = pos_of(chain[(j + 1) % m].vertex);
      if (orient2d(a, b, c) <= 0) continue;
      bool delaunay = true;
      for (std::size_t w = 0; w < m && delaunay; ++w) {
        if (w == j || w == (j + m - 1) % m || w == (j + 1) % m) continue;
        CPS_COUNT("geometry.delaunay.incircle_calls", 1);
        if (incircle(a, b, c, pos_of(chain[w].vertex)) > 0) delaunay = false;
      }
      if (delaunay) pick = j;
    }
    if (pick == m) {
      // Cocircular starvation: fall back to plain ear validity (CCW and
      // no chain vertex inside or on the closed ear triangle).
      for (std::size_t j = 0; j < m && pick == m; ++j) {
        const Vec2 a = pos_of(chain[(j + m - 1) % m].vertex);
        const Vec2 b = pos_of(chain[j].vertex);
        const Vec2 c = pos_of(chain[(j + 1) % m].vertex);
        if (orient2d(a, b, c) <= 0) continue;
        bool empty = true;
        for (std::size_t w = 0; w < m && empty; ++w) {
          if (w == j || w == (j + m - 1) % m || w == (j + 1) % m) continue;
          const Vec2 q = pos_of(chain[w].vertex);
          if (orient2d(a, b, q) >= 0 && orient2d(b, c, q) >= 0 &&
              orient2d(c, a, q) >= 0) {
            empty = false;
          }
        }
        if (empty) pick = j;
      }
    }
    if (pick == m) {
      throw std::logic_error("Delaunay::remove: no clippable ear");
    }
    clip_at(pick);
  }
  {
    // Last triangle fills the remaining hole; all three edges patch.
    const int tid = alloc_triangle();
    auto& t = triangles_[static_cast<std::size_t>(tid)];
    t.v = {chain[0].vertex, chain[1].vertex, chain[2].vertex};
    t.nbr = {chain[1].outside, chain[2].outside, chain[0].outside};
    patch(chain[0].outside, chain[0].vertex, chain[1].vertex, tid);
    patch(chain[1].outside, chain[1].vertex, chain[2].vertex, tid);
    patch(chain[2].outside, chain[2].vertex, chain[0].vertex, tid);
    created.push_back(tid);
  }

  // No explicit hint refresh here: free_triangle's stale-hint guard resets
  // locate_hint_ iff the star contained it, which is exactly the invariant
  // the next locate() needs (alive or -1).
  for (const int tid : result.removed_triangles) free_triangle(tid);
  vertex_alive_[static_cast<std::size_t>(vertex)] = 0;

  CPS_COUNT("geometry.delaunay.removes", 1);
  CPS_COUNT("geometry.delaunay.star_triangles",
            result.removed_triangles.size());
  result.created_triangles = std::move(created);
  return result;
}

MoveResult Delaunay::move_vertex(int vertex, Vec2 p, double z,
                                 double duplicate_tol) {
  MoveResult result;
  const RemoveResult removal = remove(vertex);
  const InsertResult ins = insert(p, z, duplicate_tol);
  result.vertex = ins.vertex;
  result.inserted = ins.inserted;
  result.z_changed = ins.z_changed;
  // Every alive triangle the move touched: the removal's hole fan (any
  // ear re-removed by the insertion is covered by the insertion's own
  // fan), the insertion's fan, and the duplicate path's star.  A freed
  // ear slot may have been recycled as an insertion triangle, so the
  // union is deduplicated.
  result.changed_triangles.reserve(removal.created_triangles.size() +
                                   ins.created_triangles.size() +
                                   ins.star_triangles.size());
  for (const int tid : removal.created_triangles) {
    if (triangles_[static_cast<std::size_t>(tid)].alive) {
      result.changed_triangles.push_back(tid);
    }
  }
  result.changed_triangles.insert(result.changed_triangles.end(),
                                  ins.created_triangles.begin(),
                                  ins.created_triangles.end());
  result.changed_triangles.insert(result.changed_triangles.end(),
                                  ins.star_triangles.begin(),
                                  ins.star_triangles.end());
  std::sort(result.changed_triangles.begin(), result.changed_triangles.end());
  result.changed_triangles.erase(std::unique(result.changed_triangles.begin(),
                                             result.changed_triangles.end()),
                                 result.changed_triangles.end());
  return result;
}

bool Delaunay::validate_topology() const {
  for (std::size_t i = 0; i < triangles_.size(); ++i) {
    const auto& t = triangles_[i];
    if (!t.alive) continue;
    const Vec2 a = vertices_[static_cast<std::size_t>(t.v[0])].pos;
    const Vec2 b = vertices_[static_cast<std::size_t>(t.v[1])].pos;
    const Vec2 c = vertices_[static_cast<std::size_t>(t.v[2])].pos;
    if (orient2d(a, b, c) <= 0) return false;
    for (int e = 0; e < 3; ++e) {
      const int n = t.nbr[static_cast<std::size_t>(e)];
      if (n == -1) continue;
      if (n < 0 || n >= static_cast<int>(triangles_.size())) return false;
      const auto& u = triangles_[static_cast<std::size_t>(n)];
      if (!u.alive) return false;
      bool mutual = false;
      for (int f = 0; f < 3; ++f) {
        if (u.nbr[static_cast<std::size_t>(f)] == static_cast<int>(i)) {
          const int va = u.v[static_cast<std::size_t>((f + 1) % 3)];
          const int vb = u.v[static_cast<std::size_t>((f + 2) % 3)];
          const int wa = t.v[static_cast<std::size_t>((e + 1) % 3)];
          const int wb = t.v[static_cast<std::size_t>((e + 2) % 3)];
          if ((va == wb && vb == wa) || (va == wa && vb == wb)) mutual = true;
        }
      }
      if (!mutual) return false;
    }
  }
  return true;
}

bool Delaunay::is_delaunay() const {
  const auto alive = alive_triangles();
  for (const int tid : alive) {
    const auto& t = triangles_[static_cast<std::size_t>(tid)];
    const Vec2 a = vertices_[static_cast<std::size_t>(t.v[0])].pos;
    const Vec2 b = vertices_[static_cast<std::size_t>(t.v[1])].pos;
    const Vec2 c = vertices_[static_cast<std::size_t>(t.v[2])].pos;
    for (std::size_t v = 0; v < vertices_.size(); ++v) {
      const int vid = static_cast<int>(v);
      if (vid == t.v[0] || vid == t.v[1] || vid == t.v[2]) continue;
      // Removed vertices keep their last position but belong to no alive
      // triangle; the empty-circumcircle property quantifies over the
      // triangulation's actual point set only.
      if (vertex_alive_[v] == 0) continue;
      if (incircle(a, b, c, vertices_[v].pos) > 0) return false;
    }
  }
  return true;
}

double Delaunay::total_area() const {
  double sum = 0.0;
  for (const int tid : alive_triangles()) {
    sum += triangle_geometry(tid).area();
  }
  return sum;
}

}  // namespace cps::geo

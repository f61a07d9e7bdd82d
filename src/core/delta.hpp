// The delta quality metric (Theorem 3.1).
//
// delta(V(z), V(z*)) = integral over A of |f(x, y) - DT(x, y)| dx dy:
// the volume between the referential surface and the rebuilt surface.
// Smaller is better; 0 means the rebuilt surface matches exactly.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/reconstruction.hpp"
#include "core/types.hpp"
#include "field/field.hpp"
#include "geometry/delaunay.hpp"
#include "numerics/quadrature.hpp"

namespace cps::core {

/// Evaluates delta by midpoint quadrature on a fixed evaluation grid.
/// The paper evaluates on the sqrt(A) x sqrt(A) lattice (100 x 100 for the
/// GreenOrbs window); `resolution` is that lattice density per axis.
///
/// delta() assigns lattice points to triangles by rasterisation: each
/// alive triangle is scan-converted into lattice-row spans once, strictly
/// interior points are assigned directly from the span candidates, and
/// points on an edge or vertex fall back to locate_from seeded with the
/// hint a per-point remembering walk would carry at that point.  A
/// strictly interior point has a unique containing triangle, so the sum
/// is bit-identical to locating every point with that walk — the
/// reference tests/test_delta_equivalence.cpp compares against.  The
/// sweep itself lives once in core/delta_detail.hpp; delta() folds it
/// against reference_lattice(), and IncrementalDelta's rebuild records
/// it.  Holding an IncrementalDelta (delta_incremental.hpp) across
/// triangulation events gives the same bits at O(changed area) per event.
class DeltaMetric {
 public:
  /// Reference-lattice LRU entries held by default; one entry is
  /// resolution^2 doubles (80 KB at the canonical 100 x 100 lattice).
  static constexpr std::size_t kDefaultReferenceCacheCapacity = 8;

  /// Throws std::invalid_argument for an empty or non-finite region or a
  /// zero resolution.
  DeltaMetric(const num::Rect& region, std::size_t resolution = 100);
  ~DeltaMetric();

  /// Copies share nothing: the copy starts with the same configuration
  /// (cache capacity and shards) but an empty reference cache.
  DeltaMetric(const DeltaMetric& other);
  DeltaMetric& operator=(const DeltaMetric& other);
  DeltaMetric(DeltaMetric&&) noexcept;
  DeltaMetric& operator=(DeltaMetric&&) noexcept;

  const num::Rect& region() const noexcept { return region_; }
  std::size_t resolution() const noexcept { return resolution_; }

  /// Memoization of the reference field's midpoint lattice, keyed by the
  /// field's content_key(): sweeps that evaluate many deployments against
  /// the same frame (fig7 / fig10) sample the reference once.  FieldSlice
  /// references fold the slice time into their key, so fresh slice
  /// temporaries of the same frame hit.  On by default
  /// (kDefaultReferenceCacheCapacity): content keys are never recycled —
  /// parameter hashes for the analytic zoo, never-reused instance ids (plus
  /// a mutation counter) elsewhere — so a destroyed field's cache entry can
  /// never be served to an unrelated field, unlike the PR 5 address-keyed
  /// cache this replaces.  Cached rows are the same bits value_row
  /// produces, so results are unchanged.  `max_entries` caps the LRU entry
  /// count; 0 disables caching.
  void set_reference_cache_capacity(std::size_t max_entries);
  std::size_t reference_cache_capacity() const noexcept;
  /// Entries currently held (for tests / benches), summed over shards.
  std::size_t reference_cache_size() const;
  void clear_reference_cache();

  /// Thread-safe shared mode (PlannerService): splits the cache's key
  /// space over `shards` independently locked LRU lists so concurrent
  /// queries on different fields do not serialise on one mutex.  1 (the
  /// default) is the original single-mutex cache; in sharded mode
  /// `max_entries` applies per shard.  Cached bits are unchanged —
  /// sharding only changes lock granularity and eviction locality.
  /// Clears the cache; configure before sharing the metric across
  /// threads (not safe against concurrent lookups).  Throws on 0.
  void set_reference_cache_shards(std::size_t shards);

  /// Volume between the referential field and a rebuilt surface.
  double delta(const field::Field& reference, const geo::Delaunay& dt) const;

  /// The reference field sampled over this metric's midpoint lattice
  /// (row-major, resolution² doubles) — served from the reference cache
  /// when enabled, built fresh otherwise; the same bits value_row
  /// produces either way.  delta() takes its rows from here, and the
  /// incremental engine keeps one pinned for its running |f - DT| folds.
  std::shared_ptr<const std::vector<double>> reference_lattice(
      const field::Field& reference) const;

  /// Convenience: reconstructs from samples first, then measures.  The
  /// corner policy chooses the reconstruction's scaffolding values: OSD
  /// evaluations pass kFieldValue (the historical referential surface is
  /// known by assumption — the paper's own initial triangulation carries
  /// f-valued corners), OSTD evaluations keep the default kNearestSample
  /// (a mobile deployment has no reference).
  double delta_from_samples(const field::Field& reference,
                            std::span<const Sample> samples,
                            CornerPolicy policy =
                                CornerPolicy::kNearestSample) const;

  /// Convenience: senses `reference` at `positions`, reconstructs, and
  /// measures — the full pipeline a deployment would run.
  double delta_of_deployment(const field::Field& reference,
                             std::span<const geo::Vec2> positions,
                             CornerPolicy policy =
                                 CornerPolicy::kNearestSample) const;

  /// Volume between two arbitrary fields (used to compare interpolators).
  double delta_between(const field::Field& a, const field::Field& b) const;

  /// Normalises a delta to the mean absolute error per unit area, which is
  /// easier to eyeball than raw volume.
  double mean_abs_error(double delta_value) const noexcept;

 private:
  struct RefCache;

  /// Cache lookup/fill; returns null when caching is off (reference_lattice
  /// then samples a private buffer).  The returned buffer is pinned by the
  /// shared_ptr against concurrent LRU eviction.
  std::shared_ptr<const std::vector<double>> cached_reference_lattice(
      const field::Field& reference, const num::MidpointLattice& lat) const;

  num::Rect region_;
  std::size_t resolution_;
  std::unique_ptr<RefCache> cache_;
};

}  // namespace cps::core

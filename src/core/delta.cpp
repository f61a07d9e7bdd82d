#include "core/delta.hpp"

#include "core/delta_detail.hpp"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "parallel/simd.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::core {
namespace {

/// The reference sampled over `lat`, row-major.  Row-parallel, each row
/// written by exactly one chunk, so the contents are thread-count
/// independent.
std::shared_ptr<std::vector<double>> sample_lattice(
    const field::Field& reference, const num::MidpointLattice& lat) {
  const std::size_t nx = lat.nx();
  auto rows = std::make_shared<std::vector<double>>(nx * lat.ny());
  par::parallel_for_chunks(
      lat.ny(),
      [&](std::size_t row_begin, std::size_t row_end) {
        for (std::size_t j = row_begin; j < row_end; ++j) {
          reference.value_row(lat.y(j), lat.xs(), rows->data() + j * nx);
          CPS_COUNT("core.delta.batch_rows", 1);
        }
      },
      detail::kChunkRows);
  return rows;
}

/// Σ |ref − DT| over `lat` (before the cell area), `ref_lattice` holding
/// the reference row-major.  One span plan, then per chunk of rows:
/// phase 1 assigns each point to its triangle (detail::assign_row — the
/// sweep the tracker's rebuild replays), phase 2 interpolates it, phase 3
/// folds |ref − z|.
double raster_sum(const geo::Delaunay& dt, const num::Rect& region,
                  const num::MidpointLattice& lat, const double* ref_lattice) {
  const std::size_t res = lat.nx();
  const std::span<const double> xs = lat.xs();
  const detail::SpanPlan plan(dt, detail::SpanLattice::midpoint(region, lat));
  CPS_COUNT("core.delta.raster_spans", plan.spans);

  return par::parallel_reduce(
      res, 0.0,
      [&](std::size_t row_begin, std::size_t row_end) {
        double s = 0.0;
        int hint = -1;
        std::size_t fast = 0;
        std::size_t fallback = 0;
        std::vector<detail::RowSpan> active;
        std::vector<std::uint32_t> slots(res);
        std::vector<double> diffs(res);
        for (std::size_t j = row_begin; j < row_end; ++j) {
          const double y = lat.y(j);
          const double* ref = ref_lattice + j * res;
          detail::assign_row(
              dt, plan, xs, j, y, hint, active,
              [&](std::size_t i, std::uint32_t slot, int, bool strict) {
                slots[i] = slot;
                ++(strict ? fast : fallback);
              });
          // Phase 2 — interpolation, element-wise over the SoA mirror.
          CPS_SIMD
          for (std::size_t i = 0; i < res; ++i) {
            diffs[i] = std::abs(
                ref[i] -
                detail::interpolate_point(plan.soa, slots[i], xs[i], y));
          }
          // Phase 3 — accumulation, kept serial in point order: the sum's
          // rounding sequence is part of the bit-identity contract.
          for (std::size_t i = 0; i < res; ++i) s += diffs[i];
        }
        CPS_COUNT("core.delta.raster_fast_assigns", fast);
        CPS_COUNT("core.delta.raster_fallback_locates", fallback);
        return s;
      },
      [](double a, double b) { return a + b; }, detail::kChunkRows);
}

}  // namespace

struct DeltaMetric::RefCache {
  using Key = std::uint64_t;
  struct Entry {
    Key key;
    std::shared_ptr<const std::vector<double>> rows;
  };

  /// The field's content key IS the cache key: parameter hashes for the
  /// analytic zoo (equal-parameter fields share entries), never-reused
  /// instance ids elsewhere, and FieldSlice folds its slice time in.
  /// Nothing address-derived — a recycled allocation cannot resurrect a
  /// dead field's entry (the PR 5 ABA hazard that kept the cache opt-in).
  static Key key_for(const field::Field& reference) {
    return reference.content_key();
  }

  std::size_t capacity = kDefaultReferenceCacheCapacity;
  /// Guards `entries`.  Lookups are rare next to the sweeps they feed (one
  /// per delta() or reference_lattice() call), so one lock serves the
  /// service's concurrent queries too.
  mutable std::mutex mutex;
  std::list<Entry> entries;  // Front = most recently used.
};

DeltaMetric::DeltaMetric(const num::Rect& region, std::size_t resolution)
    : region_(region),
      resolution_(resolution),
      cache_(std::make_unique<RefCache>()) {
  // A finite positive extent also rules out NaN and infinite bounds,
  // which would reach the lattice index casts as UB.
  const auto positive_finite = [](double d) {
    return d > 0.0 && std::isfinite(d);
  };
  if (!positive_finite(region.width()) || !positive_finite(region.height())) {
    throw std::invalid_argument("DeltaMetric: empty or non-finite region");
  }
  if (resolution == 0) throw std::invalid_argument("DeltaMetric: resolution");
}

DeltaMetric::~DeltaMetric() = default;
DeltaMetric::DeltaMetric(DeltaMetric&&) noexcept = default;
DeltaMetric& DeltaMetric::operator=(DeltaMetric&&) noexcept = default;

DeltaMetric::DeltaMetric(const DeltaMetric& other)
    : region_(other.region_),
      resolution_(other.resolution_),
      cache_(std::make_unique<RefCache>()) {
  cache_->capacity = other.cache_->capacity;
}

DeltaMetric& DeltaMetric::operator=(const DeltaMetric& other) {
  if (this == &other) return *this;
  region_ = other.region_;
  resolution_ = other.resolution_;
  cache_ = std::make_unique<RefCache>();
  cache_->capacity = other.cache_->capacity;
  return *this;
}

void DeltaMetric::set_reference_cache_capacity(std::size_t max_entries) {
  const std::lock_guard<std::mutex> lock(cache_->mutex);
  cache_->capacity = max_entries;
  while (cache_->entries.size() > max_entries) cache_->entries.pop_back();
}

std::size_t DeltaMetric::reference_cache_capacity() const noexcept {
  return cache_->capacity;
}

std::size_t DeltaMetric::reference_cache_size() const {
  const std::lock_guard<std::mutex> lock(cache_->mutex);
  return cache_->entries.size();
}

void DeltaMetric::clear_reference_cache() {
  const std::lock_guard<std::mutex> lock(cache_->mutex);
  cache_->entries.clear();
}

std::shared_ptr<const std::vector<double>>
DeltaMetric::cached_reference_lattice(const field::Field& reference,
                                      const num::MidpointLattice& lat) const {
  if (cache_->capacity == 0) return nullptr;
  const RefCache::Key key = RefCache::key_for(reference);
  std::list<RefCache::Entry>& entries = cache_->entries;
  {
    const std::lock_guard<std::mutex> lock(cache_->mutex);
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->key == key) {
        entries.splice(entries.begin(), entries, it);
        CPS_COUNT("core.delta.ref_cache_hits", 1);
        return entries.front().rows;
      }
    }
  }
  CPS_COUNT("core.delta.ref_cache_misses", 1);
  // Fill outside the lock.
  auto rows = sample_lattice(reference, lat);
  const std::lock_guard<std::mutex> lock(cache_->mutex);
  // A racing fill may have inserted the same key meanwhile; reuse it so
  // every caller shares one buffer.
  for (auto it = entries.begin(); it != entries.end(); ++it) {
    if (it->key == key) {
      entries.splice(entries.begin(), entries, it);
      return entries.front().rows;
    }
  }
  entries.push_front(RefCache::Entry{key, rows});
  while (entries.size() > cache_->capacity) entries.pop_back();
  return rows;
}

double DeltaMetric::delta(const field::Field& reference,
                          const geo::Delaunay& dt) const {
  const num::MidpointLattice lat(region_, resolution_, resolution_);
  const auto ref = reference_lattice(reference);
  const double value =
      raster_sum(dt, region_, lat, ref->data()) * lat.hx() * lat.hy();
  // δ-evaluation boundary for the telemetry timeline: the figure drivers
  // sample δ sparsely (every few slots), so each evaluation gets its own
  // sample carrying the value; counters between two evaluations attribute
  // cache/raster work to the right evaluation interval.
#if defined(CPS_OBS_ENABLED)
  if (obs::timeline().armed()) {
    static std::atomic<std::int64_t> eval_seq{0};
    CPS_TIMELINE_ANNOTATE("delta", value);
    CPS_TIMELINE_SAMPLE("core.delta.eval",
                        eval_seq.fetch_add(1, std::memory_order_relaxed));
  }
#endif
  return value;
}

std::shared_ptr<const std::vector<double>> DeltaMetric::reference_lattice(
    const field::Field& reference) const {
  const num::MidpointLattice lat(region_, resolution_, resolution_);
  if (auto cached = cached_reference_lattice(reference, lat)) return cached;
  // Caching disabled: a private buffer with the same sampling (same bits,
  // same batch_rows count), just not shared.
  return sample_lattice(reference, lat);
}

double DeltaMetric::delta_from_samples(const field::Field& reference,
                                       std::span<const Sample> samples,
                                       CornerPolicy policy) const {
  const geo::Delaunay dt =
      reconstruct_surface(samples, region_, policy, &reference);
  return delta(reference, dt);
}

double DeltaMetric::delta_of_deployment(const field::Field& reference,
                                        std::span<const geo::Vec2> positions,
                                        CornerPolicy policy) const {
  return delta_from_samples(reference, take_samples(reference, positions),
                            policy);
}

double DeltaMetric::delta_between(const field::Field& a,
                                  const field::Field& b) const {
  // The midpoint rule on the shared MidpointLattice, row-parallel with
  // batched sampling: fields are pure reads, chunk partials combine in
  // order.
  const num::MidpointLattice lat(region_, resolution_, resolution_);
  const std::span<const double> xs = lat.xs();
  const double sum = par::parallel_reduce(
      resolution_, 0.0,
      [&](std::size_t row_begin, std::size_t row_end) {
        double s = 0.0;
        std::vector<double> row_a(resolution_);
        std::vector<double> row_b(resolution_);
        std::vector<double> diffs(resolution_);
        for (std::size_t j = row_begin; j < row_end; ++j) {
          const double y = lat.y(j);
          a.value_row(y, xs, row_a.data());
          b.value_row(y, xs, row_b.data());
          CPS_COUNT("core.delta.batch_rows", 2);
          const double* pa = row_a.data();
          const double* pb = row_b.data();
          double* pd = diffs.data();
          CPS_SIMD
          for (std::size_t i = 0; i < resolution_; ++i) {
            pd[i] = std::abs(pa[i] - pb[i]);
          }
          // Summed serially in point order — bit-identity contract.
          for (std::size_t i = 0; i < resolution_; ++i) s += pd[i];
        }
        return s;
      },
      [](double a_, double b_) { return a_ + b_; }, detail::kChunkRows);
  return sum * lat.hx() * lat.hy();
}

double DeltaMetric::mean_abs_error(double delta_value) const noexcept {
  return delta_value / region_.area();
}

}  // namespace cps::core

// Planner-as-a-service: a long-lived, concurrent deployment-query engine.
//
// The ROADMAP's north star is a production system answering heavy what-if
// traffic — "where does δ go if node 17 moves here?" — not a one-shot
// batch binary.  PlannerService is that front-end: callers submit Score /
// Plan / WhatIf jobs and get futures; a dispatcher thread drains the
// queue in batches and executes each batch as one parallel region on the
// process-wide par::ThreadPool (one job per chunk, a job's own nested
// parallel loops run inline on its worker).
//
// Determinism contract (DESIGN.md §15): every job result is bit-identical
// to the equivalent direct call — Planner::plan for Plan jobs,
// DeltaMetric::delta_of_deployment for Score jobs, and a fresh
// DeltaMetric::delta of the identically mutated triangulation for WhatIf
// jobs — at every pool size.  This falls out of the pool's fixed chunk
// layout: a nested region inside a running chunk executes the same
// (n, grain) chunks inline with partials combined in ascending order,
// which is exactly what the direct top-level call does at any pool size.
// Shared state never feeds back into results: field snapshots are
// immutable, the sharded reference cache memoizes bit-identical buffers,
// and each WhatIf job mutates a private copy of the cached base
// triangulation.  One rule bounds the contract: do not run concurrent
// batches with the telemetry timeline armed (per-interval counter
// attribution across concurrent jobs is meaningless; the service's own
// metrics are timeline-safe — see obs notes below).
//
// obs wiring (all under the service.* namespace): service.jobs.*
// counters are deterministic totals; service.queue.depth is a gauge
// marked timeline-excluded (queue occupancy is timing-dependent); the
// per-job-type duration histograms service.job.{score,plan,whatif}_us go
// through Registry::duration_histogram, which timeline-excludes them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "core/field_snapshot.hpp"
#include "core/planner.hpp"
#include "core/reconstruction.hpp"
#include "core/types.hpp"
#include "geometry/vec2.hpp"
#include "numerics/quadrature.hpp"

namespace cps::core {

/// Which planning engine a PlanJob runs.
enum class PlannerKind { kFra, kRandom, kGrid, kFarthestPoint };

/// Score an existing deployment: δ of the surface its samples rebuild.
struct ScoreJob {
  FieldSnapshotPtr field;
  Deployment deployment;
  num::Rect region{0.0, 0.0, 100.0, 100.0};
  std::size_t resolution = 100;  ///< δ lattice density per axis.
  CornerPolicy policy = CornerPolicy::kFieldValue;
};

/// Plan a deployment.  The unified PlanRequest carries everything that
/// varies per job (region, k, rc, lattice, seed), so one job type serves
/// every engine; stochastic/lattice planners read request.seed /
/// request.lattice with their built-in defaults as fallback.
struct PlanJob {
  FieldSnapshotPtr field;
  PlannerKind planner = PlannerKind::kFra;
  PlanRequest request;
  /// When nonzero the planned deployment is also scored (δ at this
  /// resolution over request.region) into JobResult::delta.
  std::size_t score_resolution = 0;
  CornerPolicy policy = CornerPolicy::kFieldValue;
};

/// Incremental what-if: δ after one mutation of a base deployment,
/// scored via a cavity-local IncrementalDelta over a cached base state.
/// Jobs sharing the same (field, base, region, resolution, policy) share
/// one base triangulation + tracker, built once; each job copies it and
/// applies its own mutation, so the cost per query is O(changed area).
///
/// Corner semantics: the base surface's corners are valued at base-build
/// time and are NOT re-derived after the mutation.  Under kFieldValue
/// (the default) that is exact; under kNearestSample a mutation that
/// changes a corner's nearest sample would not be reflected — prefer
/// kFieldValue for what-if traffic.
struct WhatIfJob {
  enum class Op { kMove, kInsert, kRemove };

  FieldSnapshotPtr field;
  /// Base deployment, shared across the jobs that probe it.
  std::shared_ptr<const Deployment> base;
  Op op = Op::kMove;
  std::size_t node = 0;     ///< Index into base->positions (kMove/kRemove).
  geo::Vec2 to{0.0, 0.0};   ///< Destination (kMove/kInsert).
  num::Rect region{0.0, 0.0, 100.0, 100.0};
  std::size_t resolution = 100;
  CornerPolicy policy = CornerPolicy::kFieldValue;
};

/// What a job's future resolves to.  A job that threw reports ok = false
/// with the exception message instead of tearing down the batch.
struct JobResult {
  bool ok = true;
  std::string error;
  /// δ for Score/WhatIf jobs (and Plan jobs with score_resolution set).
  double delta = 0.0;
  /// The planned deployment (Plan jobs only).
  Deployment deployment;
  /// Submit-to-completion wall time (includes queue wait).
  double latency_ms = 0.0;
  /// Execution-only wall time.
  double exec_ms = 0.0;
};

/// The service.  Thread-safe: submit from any number of threads.
class PlannerService {
 public:
  struct Config {
    /// Jobs drained per dispatch round; each round is one parallel
    /// region over its jobs.
    std::size_t max_batch = 64;
  };

  /// Lifetime totals (plain counts, independent of the obs build flags —
  /// tests assert sharing behaviour through these).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t errors = 0;
    std::uint64_t score_jobs = 0;
    std::uint64_t plan_jobs = 0;
    std::uint64_t whatif_jobs = 0;
    std::uint64_t snapshot_hits = 0;
    std::uint64_t snapshot_misses = 0;
    std::uint64_t base_state_hits = 0;
    std::uint64_t base_state_misses = 0;
    std::uint64_t batches = 0;
    std::uint64_t max_batch_size = 0;
  };

  PlannerService();
  explicit PlannerService(Config config);
  /// Drains every submitted job, then joins the dispatcher.
  ~PlannerService();
  PlannerService(const PlannerService&) = delete;
  PlannerService& operator=(const PlannerService&) = delete;

  /// Wraps (or reuses) an immutable snapshot of `field`, interned by
  /// content key: interning the same content twice returns the same
  /// snapshot, so its reference lattice is shared across all jobs.
  FieldSnapshotPtr intern(std::shared_ptr<const field::Field> field);

  std::future<JobResult> submit(ScoreJob job);
  std::future<JobResult> submit(PlanJob job);
  std::future<JobResult> submit(WhatIfJob job);

  /// Pins `field`'s sampled reference lattice for (region, resolution)
  /// into the service's shared metric cache — per-snapshot pinning.
  /// Optional: a cold query fills the cache itself; prewarming makes
  /// every subsequent concurrent lookup a deterministic hit (the bench's
  /// counter gate relies on this).
  void prewarm(const FieldSnapshotPtr& field, const num::Rect& region,
               std::size_t resolution);

  /// Blocks until every job submitted so far has completed.
  void wait_idle();

  /// Queued-but-not-yet-dispatched jobs right now.
  std::size_t queue_depth() const;

  Stats stats() const;

  const Config& config() const noexcept { return config_; }

 private:
  struct Impl;

  Config config_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cps::core

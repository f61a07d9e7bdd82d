// Perf-trajectory harness: the one binary that records the algorithmic
// work and wall time of each production hot path.
//
// Sweeps
//   * FRA planning at k in {100, 500, 2000} (quick: {50, 100, 200}) with
//     the indexed selection heap,
//   * CMA at N in {100, 400, 1000} nodes (quick: {60, 150}) for 200 slots
//     (quick: 50) under each link model (disk / distance-loss /
//     Gilbert-Elliott),
//   * CMA at N = 10000 (quick: 2000) on a constant-density region
//     (side = sqrt(N / 0.1), the paper's ~0.1 nodes/m^2), where the tile
//     count grows with N,
//   * delta evaluation of one FRA deployment at resolution 256, the
//     cavity-local tracker over the same plan, and a fig10-style sweep of
//     several deployments against one frame with the reference-lattice
//     cache on,
//   * a planner-service job mix — the same deterministic Score / Plan /
//     WhatIf jobs submitted to a PlannerService at pool sizes 1 and 4 AND
//     run as a serial loop of direct calls (fresh full re-sweep per
//     what-if) — bit-identical deltas and deployments required, with
//     throughput (jobs/s), per-job latency percentiles, and a paired-ratio
//     `speedup_vs_serial`,
// and emits BENCH_perf.json with wall times AND the algorithmic counters
// (transmit attempts per slot, candidates examined per iteration, MST
// recomputes, heap pushes / stale pops, tile matching pairs, point
// locations, batched rows, reference-cache hits), plus a `machine` block
// (hardware threads, CPS_THREADS, pool size, build stamps) so the perf
// trajectory is comparable across runners.
//
// The counters — not the wall times — are the primary regression signal:
// they are deterministic, thread-count independent, and machine
// independent, so a checked-in BENCH_baseline.json can gate CI (--check
// fails on any counter more than 10% above baseline) without flaking on
// noisy runners.  Wall time is gated too, but coarsely: each record is
// repeat-sampled (--repeats, default 3) and the exact order-statistic
// p50/p99 over the retained samples must stay under baseline * band, with
// multiplicative bands (stored in the baseline's `latency_gate`) chosen
// to absorb runner noise — the latency gate catches order-of-magnitude
// blowups, not percent-level drift.  --check additionally enforces the
// absolute gates of kGates (check_against_baseline) on derived values.
//
// The in-bench equivalence checks (tracked vs swept δ, cached vs uncached
// δ, service vs direct calls) exit non-zero on any bit difference.
//
// Flags: --quick (CI-sized sweep), --out PATH (default BENCH_perf.json),
// --check BASELINE.json (compare counters + latency percentiles),
// --repeats N (latency samples per record, default 3), --threads N.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/cma.hpp"
#include "core/delta.hpp"
#include "core/fra.hpp"
#include "core/planner.hpp"
#include "core/planner_service.hpp"
#include "core/reconstruction.hpp"
#include "field/analytic_fields.hpp"
#include "field/time_varying.hpp"
#include "geometry/delaunay.hpp"
#include "json_mini.hpp"
#include "net/link_model.hpp"

namespace {

using namespace cps;

// One sweep point: an id, a wall time, the raw counters that describe the
// algorithmic work done, and a few derived per-unit rates for reading.
struct Record {
  std::string id;
  double wall_ms = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> derived;

  /// Wall-time distribution over the --repeats runs of this record.
  /// Percentiles are exact order statistics over the retained samples —
  /// with n this small (the --repeats count) a bucketed estimator is the
  /// wrong tool: obs::Histogram's power-of-two buckets can move a
  /// 3-sample p50 by ~2x between identical runs.  The histogram remains
  /// the estimator for the telemetry timeline and the service layer,
  /// which stream unbounded sample counts and cannot retain them.
  struct Latency {
    std::uint64_t samples = 0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    double mean_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
  };
  Latency latency;

  std::uint64_t counter(const std::string& name) const {
    for (const auto& [n, v] : counters)
      if (n == name) return v;
    return 0;
  }

  const double* derived_value(const std::string& name) const {
    for (const auto& [n, v] : derived)
      if (n == name) return &v;
    return nullptr;
  }
};

/// Nearest-rank order statistic over sorted samples: the smallest sample
/// with at least a q fraction of the distribution at or below it
/// (rank = ceil(q * n), clamped to [1, n]).  Exact for any n.
double exact_quantile(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return sorted[std::min(n - 1, rank == 0 ? 0 : rank - 1)];
}

/// Sorts the retained samples into a record's exact percentile summary.
void finalize_latency(Record& rec, std::vector<double> samples) {
  double sum = 0.0;
  for (const double s : samples) sum += s;
  std::sort(samples.begin(), samples.end());
  rec.latency.samples = samples.size();
  rec.latency.p50_ms = exact_quantile(samples, 0.5);
  rec.latency.p90_ms = exact_quantile(samples, 0.9);
  rec.latency.p99_ms = exact_quantile(samples, 0.99);
  rec.latency.mean_ms = sum / static_cast<double>(samples.size());
  rec.latency.min_ms = samples.front();
  rec.latency.max_ms = samples.back();
}

// Runs one record builder `repeats` times, retaining every run's wall
// time; keeps the last run's counters/outputs (they are deterministic, so
// every repeat agrees) and attaches the exact percentile summary.
template <typename F>
Record timed_repeat(std::size_t repeats, F&& run_once) {
  std::vector<double> samples;
  samples.reserve(repeats);
  // One untimed warmup run per record: cold caches and page faults
  // otherwise land in the first sample's percentiles.
  Record rec = run_once();
  for (std::size_t r = 0; r < repeats; ++r) {
    rec = run_once();
    samples.push_back(rec.wall_ms);
  }
  finalize_latency(rec, std::move(samples));
  return rec;
}

// A/B variant for the service-vs-serial pair: interleaves the two
// builders' samples (a, b, a, b, ...) after one warmup each, so both see
// the same machine epoch.  Block ordering (all of A, then all of B) lets
// slow drift — frequency ramps, allocator growth across a long bench —
// bias whichever block runs first.  `pair_ratios` receives b_i / a_i per
// repeat: adjacent samples share an epoch, so the median of those paired
// ratios estimates the A-vs-B margin with the drift cancelled — much
// tighter than the ratio of independent p50s.
template <typename FA, typename FB>
std::pair<Record, Record> timed_repeat_pair(std::size_t repeats, FA&& run_a,
                                            FB&& run_b,
                                            std::vector<double>& pair_ratios) {
  std::vector<double> sa, sb;
  sa.reserve(repeats);
  sb.reserve(repeats);
  Record ra = run_a();
  Record rb = run_b();
  for (std::size_t r = 0; r < repeats; ++r) {
    ra = run_a();
    sa.push_back(ra.wall_ms);
    rb = run_b();
    sb.push_back(rb.wall_ms);
  }
  for (std::size_t r = 0; r < repeats; ++r) {
    pair_ratios.push_back(sa[r] == 0.0 ? 0.0 : sb[r] / sa[r]);
  }
  finalize_latency(ra, std::move(sa));
  finalize_latency(rb, std::move(sb));
  return {std::move(ra), std::move(rb)};
}

std::uint64_t cval(const char* name) {
  return obs::registry().counter(name).value();
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- FRA sweep -----------------------------------------------------------

Record run_fra(const field::Field& frame, std::size_t k) {
  Record rec;
  rec.id = "fra.k" + std::to_string(k);

  core::FraPlanner planner;  // error_grid = 100, the paper's lattice.

  obs::registry().reset();
  const double t0 = now_ms();
  planner.plan(frame, core::PlanRequest{bench::kRegion, k, bench::kRc});
  rec.wall_ms = now_ms() - t0;

  for (const char* name :
       {"core.fra.iterations", "core.fra.candidates_scanned",
        "core.fra.heap_pushes", "core.fra.heap_pops",
        "core.fra.heap_updates", "core.fra.heap_rebuilds",
        "core.fra.heap_flat_scans", "core.fra.heap_stale_pops",
        "core.fra.heap_parked", "core.fra.candidates_rebucketed",
        "core.fra.mst_recomputes", "core.fra.foresight_triggers",
        "graph.relay.mst_recomputes"}) {
    rec.counters.emplace_back(name, cval(name));
  }

  // Candidates examined per selection: what the heap popped plus what its
  // storm-mode flat scans swept (candidates_scanned).  Deterministic, so
  // --check gates it exactly (kGates).
  const double iters =
      static_cast<double>(std::max<std::uint64_t>(1, cval("core.fra.iterations")));
  rec.derived.emplace_back(
      "scans_per_iteration",
      static_cast<double>(cval("core.fra.heap_pops") +
                          cval("core.fra.candidates_scanned")) /
          iters);
  // The indexed decrease-key heap holds one live entry per candidate —
  // stale pops are structurally impossible, so a nonzero ratio means the
  // heap regressed to lazy deletion (gated in kGates).
  rec.derived.emplace_back(
      "stale_pop_ratio",
      static_cast<double>(cval("core.fra.heap_stale_pops")) /
          static_cast<double>(
              std::max<std::uint64_t>(1, cval("core.fra.heap_pops"))));
  return rec;
}

// --- CMA sweep -----------------------------------------------------------

std::unique_ptr<net::LinkModel> make_link(const std::string& model,
                                          double rc) {
  constexpr std::uint64_t kSeed = 11;
  if (model == "disk") return std::make_unique<net::DiskLink>(rc, 0.05, kSeed);
  if (model == "distloss")
    return std::make_unique<net::DistanceLossLink>(rc, 0.5, 2.0, kSeed);
  return std::make_unique<net::GilbertElliottLink>(
      rc, net::GilbertElliottLink::Params{}, kSeed);
}

Record run_cma(const field::TimeVaryingField& env, std::size_t n,
               const std::string& model, std::size_t slots) {
  Record rec;
  rec.id = "cma.n" + std::to_string(n) + "." + model;

  core::CmaConfig cfg;  // Rc = 10, Rs = 5, v = 1 m/min, beta = 2.
  cfg.rc = bench::kRc * 1.0001;  // Keep the pitch grids connected.
  cfg.lcm = core::LcmMode::kPaper;
  core::CmaSimulation sim(env, bench::kRegion,
                          core::GridPlanner::make_grid(bench::kRegion, n)
                              .positions,
                          cfg, trace::minutes(10, 0));
  sim.set_link_model(make_link(model, cfg.rc));

  obs::registry().reset();
  const double t0 = now_ms();
  sim.run(slots);
  rec.wall_ms = now_ms() - t0;

  for (const char* name :
       {"net.bus.transmit_attempts", "net.bus.deliveries",
        "net.bus.delivery_failures", "net.bus.messages_sent",
        "net.bus.drops_total", "net.bus.drop.dead_sender",
        "net.bus.drop.dead_receiver", "net.bus.drop.out_of_range",
        "net.bus.drop.link_loss_draw", "net.bus.drop.ttl_expired"}) {
    rec.counters.emplace_back(name, cval(name));
  }
  rec.derived.emplace_back(
      "attempts_per_slot",
      static_cast<double>(cval("net.bus.transmit_attempts")) /
          static_cast<double>(slots));
  return rec;
}

// --- Constant-density CMA sweep ------------------------------------------

// Constant-density scaling: the canonical 100 x 100 region saturates near
// N = 1000 at the paper's ~0.1 nodes/m^2, so the large points grow the
// region (side = sqrt(N / 0.1)) instead of packing the nodes — tile count
// rises with N while per-tile radio degree stays at the paper's ~31.
num::Rect density_region(std::size_t n) {
  const double side = std::sqrt(static_cast<double>(n) / 0.1);
  return num::Rect{0.0, 0.0, side, side};
}

// A static Gaussian-mixture environment scaled to the region.  Analytic
// rather than a recorded GreenOrbs window: the recorded frames cover only
// the canonical region, and a static frame keeps per-sample cost flat so
// the sweep isolates the slot schedule and bus delivery.
field::StaticTimeField density_field(const num::Rect& region) {
  const double w = region.width();
  const double h = region.height();
  std::vector<field::GaussianBump> bumps;
  bumps.push_back({{region.x0 + 0.30 * w, region.y0 + 0.30 * h}, 60.0,
                   0.12 * w});
  bumps.push_back({{region.x0 + 0.72 * w, region.y0 + 0.58 * h}, 45.0,
                   0.09 * w});
  bumps.push_back({{region.x0 + 0.45 * w, region.y0 + 0.82 * h}, 30.0,
                   0.15 * w});
  return field::StaticTimeField(
      std::make_shared<field::GaussianMixtureField>(20.0, std::move(bumps)));
}

Record run_cma_density(const field::TimeVaryingField& env,
                       const num::Rect& region, std::size_t n,
                       std::size_t slots) {
  Record rec;
  rec.id = "cma.n" + std::to_string(n) + ".density";

  core::CmaConfig cfg;
  cfg.rc = bench::kRc * 1.0001;  // Keep the pitch grids connected.
  cfg.lcm = core::LcmMode::kPaper;
  // Coarser sensing lattice than the figure benches: at N = 10000 a 1 m
  // pitch would make sensing dominate the slot and mask the bus work
  // this sweep measures.
  cfg.sample_spacing = 2.5;
  core::CmaSimulation sim(env, region,
                          core::GridPlanner::make_grid(region, n).positions,
                          cfg, trace::minutes(10, 0));
  sim.set_link_model(make_link("disk", cfg.rc));

  obs::registry().reset();
  const double t0 = now_ms();
  sim.run(slots);
  rec.wall_ms = now_ms() - t0;

  for (const char* name :
       {"net.bus.transmit_attempts", "net.bus.deliveries",
        "net.bus.delivery_failures", "net.bus.messages_sent",
        "net.bus.drops_total", "net.bus.drop.dead_sender",
        "net.bus.drop.dead_receiver", "net.bus.drop.out_of_range",
        "net.bus.drop.link_loss_draw", "net.bus.drop.ttl_expired",
        "core.cma.shard.migrations", "core.cma.shard.ghost_exchanged",
        "core.cma.shard.match_pairs"}) {
    rec.counters.emplace_back(name, cval(name));
  }
  rec.derived.emplace_back(
      "attempts_per_slot",
      static_cast<double>(cval("net.bus.transmit_attempts")) /
          static_cast<double>(slots));
  rec.derived.emplace_back(
      "inbox_high_water_mean",
      obs::registry().histogram("net.bus.inbox_high_water").mean());
  rec.derived.emplace_back(
      "ghost_fraction_of_pairs",
      ratio(static_cast<double>(cval("core.cma.shard.ghost_exchanged")),
            static_cast<double>(cval("core.cma.shard.match_pairs"))));
  return rec;
}

// --- Delta-eval sweep ----------------------------------------------------

Record run_delta_eval(const field::Field& frame,
                      const std::vector<geo::Vec2>& positions,
                      std::size_t resolution, double& delta_out) {
  Record rec;
  rec.id = "delta.res" + std::to_string(resolution);

  core::DeltaMetric metric(bench::kRegion, resolution);

  obs::registry().reset();
  const double t0 = now_ms();
  delta_out = metric.delta_of_deployment(frame, positions,
                                         core::CornerPolicy::kFieldValue);
  rec.wall_ms = now_ms() - t0;

  for (const char* name :
       {"geometry.delaunay.locates", "geometry.delaunay.walk_steps",
        "core.delta.batch_rows", "core.delta.raster_spans",
        "core.delta.raster_fast_assigns",
        "core.delta.raster_fallback_locates"}) {
    rec.counters.emplace_back(name, cval(name));
  }
  const double points =
      static_cast<double>(resolution) * static_cast<double>(resolution);
  rec.derived.emplace_back(
      "locates_per_point",
      static_cast<double>(cval("geometry.delaunay.locates")) / points);
  return rec;
}

// FRA planning with the cavity-local δ tracker attached: every insertion's
// cavity report re-rasters only the lattice rows it touched, so the
// trajectory costs O(changed area) per step where the from-scratch path
// would re-sweep all res² points per probe.  --check hard-gates the
// savings ratio at 10x (kGates).
Record run_delta_incremental(const field::Field& frame, std::size_t k,
                             std::size_t resolution, double& delta_out,
                             std::vector<geo::Vec2>& positions_out) {
  Record rec;
  rec.id = "delta.incremental.k" + std::to_string(k) + ".res" +
           std::to_string(resolution);

  core::DeltaMetric metric(bench::kRegion, resolution);
  core::FraConfig cfg;
  cfg.track_delta = &metric;
  core::FraPlanner planner(cfg);

  obs::registry().reset();
  const double t0 = now_ms();
  const core::FraResult result = planner.plan_detailed(
      frame, core::PlanRequest{bench::kRegion, k, bench::kRc});
  rec.wall_ms = now_ms() - t0;
  delta_out = result.final_delta;
  positions_out = result.deployment.positions;

  for (const char* name :
       {"core.delta.inc_events", "core.delta.inc_points",
        "core.delta.inc_rows", "core.delta.inc_keep_assigns",
        "core.delta.inc_relocates", "core.delta.inc_rebuilds",
        "core.delta.inc_retargets", "geometry.delaunay.locates"}) {
    rec.counters.emplace_back(name, cval(name));
  }

  const auto& ds = result.delta_stats;
  const double events =
      static_cast<double>(std::max<std::size_t>(ds.events, 1));
  rec.derived.emplace_back(
      "points_per_event",
      static_cast<double>(ds.points_reevaluated) / events);
  // What the per-step what-if sweeps would have cost from scratch versus
  // what the tracker actually re-evaluated.
  const double savings = ratio(static_cast<double>(ds.events) *
                                   static_cast<double>(ds.full_sweep_points),
                               static_cast<double>(ds.points_reevaluated));
  rec.derived.emplace_back("full_sweep_savings", savings);
  return rec;
}

Record run_delta_refcache_sweep(
    const field::Field& frame,
    const std::vector<std::vector<geo::Vec2>>& deployments,
    std::vector<double>& deltas_out) {
  Record rec;
  rec.id = "delta.refcache.m" + std::to_string(deployments.size());

  core::DeltaMetric metric = bench::canonical_metric();
  // Content-keyed caching is on by default; pin the capacity anyway so the
  // record measures a fixed configuration even if the default moves.
  metric.set_reference_cache_capacity(8);

  obs::registry().reset();
  const double t0 = now_ms();
  deltas_out.clear();
  for (const auto& positions : deployments) {
    deltas_out.push_back(metric.delta_of_deployment(
        frame, positions, core::CornerPolicy::kFieldValue));
  }
  rec.wall_ms = now_ms() - t0;

  for (const char* name :
       {"core.delta.ref_cache_hits", "core.delta.ref_cache_misses",
        "core.delta.batch_rows", "geometry.delaunay.locates"}) {
    rec.counters.emplace_back(name, cval(name));
  }
  rec.derived.emplace_back(
      "hit_ratio",
      ratio(static_cast<double>(cval("core.delta.ref_cache_hits")),
            static_cast<double>(cval("core.delta.ref_cache_hits") +
                                cval("core.delta.ref_cache_misses"))));
  return rec;
}

// --- Service mix ---------------------------------------------------------

// One deterministic job mix, submitted twice per thread count: through the
// PlannerService (run_service_mix) and as a serial loop of the equivalent
// direct calls (run_serial_mix).  The serial loop is both the throughput
// baseline and the bit-identity oracle: Score jobs against
// DeltaMetric::delta_of_deployment, Plan jobs against Planner::plan, and
// WhatIf jobs against a fresh DeltaMetric::delta of the identically
// mutated base triangulation — the full re-sweep the service's
// cavity-local IncrementalDelta path must match bit-for-bit and beat
// structurally (O(changed area) vs O(lattice) per query), which is why
// the speedup gate holds even on a single-core runner.
struct ServiceMix {
  std::shared_ptr<const field::Field> field;
  std::shared_ptr<const core::Deployment> base;  ///< what-if base.
  std::vector<core::Deployment> scores;
  std::vector<std::pair<core::PlannerKind, core::PlanRequest>> plans;
  struct WhatIf {
    core::WhatIfJob::Op op;
    std::size_t node;
    geo::Vec2 to;
  };
  std::vector<WhatIf> whatifs;

  std::size_t total() const {
    return scores.size() + plans.size() + whatifs.size();
  }
};

ServiceMix make_service_mix(bool quick,
                            std::shared_ptr<const field::Field> field) {
  ServiceMix mix;
  mix.field = std::move(field);
  // Interior base positions: none coincides with a region corner, so
  // base node i maps to vertex kCorners + i in the reconstruction (the
  // same invariant tests/test_service.cpp leans on).
  constexpr std::size_t kBaseK = 40;
  mix.base = std::make_shared<core::Deployment>(core::RandomPlanner(3).plan(
      *mix.field, core::PlanRequest{bench::kRegion, kBaseK, bench::kRc}));

  const std::size_t n_scores = quick ? 6 : 10;
  for (std::size_t i = 0; i < n_scores; ++i) {
    mix.scores.push_back(core::RandomPlanner(200 + i).plan(
        *mix.field, core::PlanRequest{bench::kRegion, 40, bench::kRc}));
  }

  // One plan per engine, exercising the unified PlanRequest overrides
  // (per-request seed for Random, per-request lattice for FarthestPoint).
  mix.plans.emplace_back(core::PlannerKind::kFra,
                         core::PlanRequest{bench::kRegion, 12, bench::kRc});
  mix.plans.emplace_back(
      core::PlannerKind::kRandom,
      core::PlanRequest{bench::kRegion, 40, bench::kRc, 0, /*seed=*/11});
  mix.plans.emplace_back(core::PlannerKind::kGrid,
                         core::PlanRequest{bench::kRegion, 36, bench::kRc});
  mix.plans.emplace_back(
      core::PlannerKind::kFarthestPoint,
      core::PlanRequest{bench::kRegion, 20, bench::kRc, /*lattice=*/30});
  if (!quick) {
    mix.plans.emplace_back(
        core::PlannerKind::kRandom,
        core::PlanRequest{bench::kRegion, 40, bench::kRc, 0, /*seed=*/12});
    mix.plans.emplace_back(
        core::PlannerKind::kFarthestPoint,
        core::PlanRequest{bench::kRegion, 24, bench::kRc, /*lattice=*/40});
  }

  // What-if traffic dominates the mix, as it would in production: many
  // cheap probes against one shared base.  Destinations are interior and
  // distinct from every base position, cycling move / insert / remove.
  const std::size_t n_whatifs = quick ? 24 : 64;
  for (std::size_t i = 0; i < n_whatifs; ++i) {
    ServiceMix::WhatIf w;
    w.to = {8.0 + static_cast<double>((i * 37) % 83) + 0.375,
            6.0 + static_cast<double>((i * 53) % 89) + 0.625};
    switch (i % 3) {
      case 0:
        w.op = core::WhatIfJob::Op::kMove;
        w.node = (i * 5) % kBaseK;
        break;
      case 1:
        w.op = core::WhatIfJob::Op::kInsert;
        w.node = 0;
        break;
      default:
        w.op = core::WhatIfJob::Op::kRemove;
        w.node = (i * 7 + 3) % kBaseK;
        break;
    }
    mix.whatifs.push_back(w);
  }
  return mix;
}

/// Per-job-type duration histogram summary captured from the obs registry
/// at the end of a service run (the serial half of the pair resets the
/// registry, so this must be read inside run_service_mix).
struct ServiceObs {
  struct HistSummary {
    std::uint64_t count = 0;
    double p50_us = 0.0, p90_us = 0.0, p99_us = 0.0, mean_us = 0.0;
  };
  HistSummary hists[3];  // score, plan, whatif — kServiceHistNames order.
};

constexpr const char* kServiceHistNames[3] = {
    "service.job.score_us", "service.job.plan_us", "service.job.whatif_us"};

Record run_service_mix(const ServiceMix& mix, std::size_t threads,
                       std::vector<double>& deltas_out,
                       std::vector<std::vector<geo::Vec2>>& plans_out,
                       bool& all_ok, ServiceObs& sobs) {
  Record rec;
  rec.id = "service.mix.t" + std::to_string(threads);

  obs::registry().reset();
  core::PlannerService service;
  const auto snapshot = service.intern(mix.field);
  // Prewarm the shared reference lattice: the one cache miss lands here,
  // deterministically, instead of racing inside the first batch.
  service.prewarm(snapshot, bench::kRegion, bench::kDeltaResolution);

  const double t0 = now_ms();
  std::vector<std::future<core::JobResult>> futures;
  futures.reserve(mix.total());
  for (const auto& d : mix.scores) {
    futures.push_back(service.submit(core::ScoreJob{
        snapshot, d, bench::kRegion, bench::kDeltaResolution}));
  }
  for (const auto& [kind, request] : mix.plans) {
    futures.push_back(service.submit(core::PlanJob{
        snapshot, kind, request,
        /*score_resolution=*/bench::kDeltaResolution}));
  }
  for (const auto& w : mix.whatifs) {
    futures.push_back(service.submit(
        core::WhatIfJob{snapshot, mix.base, w.op, w.node, w.to,
                        bench::kRegion, bench::kDeltaResolution}));
  }

  deltas_out.clear();
  plans_out.clear();
  all_ok = true;
  std::vector<double> job_latencies;
  job_latencies.reserve(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const core::JobResult r = futures[i].get();
    if (!r.ok) {
      std::fprintf(stderr, "%s: job %zu failed: %s\n", rec.id.c_str(), i,
                   r.error.c_str());
      all_ok = false;
    }
    deltas_out.push_back(r.delta);
    if (i >= mix.scores.size() &&
        i < mix.scores.size() + mix.plans.size()) {
      plans_out.push_back(r.deployment.positions);
    }
    job_latencies.push_back(r.latency_ms);
  }
  rec.wall_ms = now_ms() - t0;

  for (const char* name :
       {"service.jobs.submitted", "service.jobs.completed",
        "service.jobs.score", "service.jobs.plan", "service.jobs.whatif",
        "service.snapshot.hits", "service.snapshot.misses",
        "service.base_state.hits", "service.base_state.misses",
        "core.delta.ref_cache_hits", "core.delta.ref_cache_misses",
        "core.delta.inc_events", "core.delta.inc_points"}) {
    rec.counters.emplace_back(name, cval(name));
  }
  rec.derived.emplace_back(
      "throughput_jps",
      ratio(static_cast<double>(mix.total()), rec.wall_ms / 1000.0));
  std::sort(job_latencies.begin(), job_latencies.end());
  rec.derived.emplace_back("job_latency_p50_ms",
                           exact_quantile(job_latencies, 0.5));
  rec.derived.emplace_back("job_latency_p99_ms",
                           exact_quantile(job_latencies, 0.99));

  for (std::size_t h = 0; h < 3; ++h) {
    const obs::Histogram& hist =
        obs::registry().duration_histogram(kServiceHistNames[h]);
    sobs.hists[h].count = hist.count();
    sobs.hists[h].p50_us = hist.quantile(0.5);
    sobs.hists[h].p90_us = hist.quantile(0.9);
    sobs.hists[h].p99_us = hist.quantile(0.99);
    sobs.hists[h].mean_us = hist.mean();
  }
  return rec;
}

Record run_serial_mix(const ServiceMix& mix, std::size_t threads,
                      std::vector<double>& deltas_out,
                      std::vector<std::vector<geo::Vec2>>& plans_out) {
  Record rec;
  rec.id = "service.mix.t" + std::to_string(threads) + ".serial";

  obs::registry().reset();
  core::DeltaMetric metric(bench::kRegion, bench::kDeltaResolution);
  metric.reference_lattice(*mix.field);  // Same prewarm as the service.

  const double t0 = now_ms();
  deltas_out.clear();
  plans_out.clear();
  for (const auto& d : mix.scores) {
    deltas_out.push_back(metric.delta_of_deployment(
        *mix.field, d.positions, core::CornerPolicy::kFieldValue));
  }
  for (const auto& [kind, request] : mix.plans) {
    core::Deployment d;
    switch (kind) {
      case core::PlannerKind::kFra:
        d = core::FraPlanner().plan(*mix.field, request);
        break;
      case core::PlannerKind::kRandom:
        d = core::RandomPlanner().plan(*mix.field, request);
        break;
      case core::PlannerKind::kGrid:
        d = core::GridPlanner().plan(*mix.field, request);
        break;
      case core::PlannerKind::kFarthestPoint:
        d = core::FarthestPointPlanner().plan(*mix.field, request);
        break;
    }
    deltas_out.push_back(metric.delta_of_deployment(
        *mix.field, d.positions, core::CornerPolicy::kFieldValue));
    plans_out.push_back(std::move(d.positions));
  }
  // What-ifs the pre-service way: copy the base triangulation, mutate,
  // full re-sweep.  This is the oracle protocol (DESIGN.md §13/§15) and
  // the cost model the service's incremental path is gated against.
  const auto samples = core::take_samples(*mix.field, mix.base->positions);
  const geo::Delaunay dt_base = core::reconstruct_surface(
      samples, bench::kRegion, core::CornerPolicy::kFieldValue,
      mix.field.get());
  for (const auto& w : mix.whatifs) {
    geo::Delaunay dt = dt_base;
    switch (w.op) {
      case core::WhatIfJob::Op::kMove:
        dt.move_vertex(geo::Delaunay::kCorners + w.node, w.to,
                       mix.field->value(w.to));
        break;
      case core::WhatIfJob::Op::kInsert:
        dt.insert(w.to, mix.field->value(w.to));
        break;
      case core::WhatIfJob::Op::kRemove:
        dt.remove(geo::Delaunay::kCorners + w.node);
        break;
    }
    deltas_out.push_back(metric.delta(*mix.field, dt));
  }
  rec.wall_ms = now_ms() - t0;

  for (const char* name :
       {"core.delta.ref_cache_hits", "core.delta.ref_cache_misses",
        "geometry.delaunay.locates"}) {
    rec.counters.emplace_back(name, cval(name));
  }
  rec.derived.emplace_back(
      "throughput_jps",
      ratio(static_cast<double>(mix.total()), rec.wall_ms / 1000.0));
  return rec;
}

/// The service.* sidecar CI uploads next to BENCH_perf.json: per thread
/// count, the service record's counters/derived plus the per-job-type
/// duration histogram summaries (which the main JSON does not carry).
void write_service_sidecar(
    const std::string& path, const std::string& mode,
    const std::vector<std::tuple<std::size_t, Record, ServiceObs>>& runs) {
  std::ofstream out(path);
  if (!out) {
    std::printf("note: cannot write %s\n", path.c_str());
    return;
  }
  out.precision(17);
  out << "{\n";
  out << "  \"schema\": \"cps.bench_perf.service.v1\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& [threads, rec, sobs] = runs[i];
    out << "    {\n";
    out << "      \"threads\": " << threads << ",\n";
    out << "      \"wall_ms\": " << rec.wall_ms << ",\n";
    out << "      \"counters\": {";
    for (std::size_t j = 0; j < rec.counters.size(); ++j) {
      out << (j == 0 ? "\n" : ",\n") << "        \""
          << rec.counters[j].first << "\": " << rec.counters[j].second;
    }
    out << "\n      },\n";
    out << "      \"derived\": {";
    for (std::size_t j = 0; j < rec.derived.size(); ++j) {
      out << (j == 0 ? "\n" : ",\n") << "        \""
          << rec.derived[j].first << "\": " << rec.derived[j].second;
    }
    out << "\n      },\n";
    out << "      \"job_histograms\": {";
    for (std::size_t h = 0; h < 3; ++h) {
      const auto& s = sobs.hists[h];
      out << (h == 0 ? "\n" : ",\n") << "        \"" << kServiceHistNames[h]
          << "\": {\"count\": " << s.count << ", \"p50_us\": " << s.p50_us
          << ", \"p90_us\": " << s.p90_us << ", \"p99_us\": " << s.p99_us
          << ", \"mean_us\": " << s.mean_us << "}";
    }
    out << "\n      }\n";
    out << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

// --- Equivalence oracles -------------------------------------------------

bool same_positions(const std::vector<geo::Vec2>& a,
                    const std::vector<geo::Vec2>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].x != b[i].x || a[i].y != b[i].y) return false;
  return true;
}

// --- JSON output ---------------------------------------------------------

void write_json(std::ostream& out, const std::string& mode,
                const std::vector<Record>& records) {
  out.precision(17);
  const char* threads_env = std::getenv("CPS_THREADS");
  out << "{\n";
  out << "  \"schema\": \"cps.bench_perf.v1\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"threads\": " << par::thread_count() << ",\n";
  // Machine context for cross-runner comparison of the wall times; the
  // baseline gate reads only `records[].counters`, so none of this
  // affects CI.
  out << "  \"machine\": {\n";
  out << "    \"hardware_threads\": " << par::hardware_threads() << ",\n";
  out << "    \"cps_threads_env\": \""
      << (threads_env != nullptr ? threads_env : "") << "\",\n";
  out << "    \"pool_threads\": " << par::thread_count() << ",\n";
  // Build-configuration stamps: records from a Debug, simd-off, or
  // cold-cache build are not comparable to Release numbers, so say which
  // one produced this file.
#if defined(CPS_SIMD_ENABLED)
  out << "    \"simd\": true,\n";
#else
  out << "    \"simd\": false,\n";
#endif
#if defined(CPS_BENCH_BUILD_TYPE)
  out << "    \"build_type\": \"" << CPS_BENCH_BUILD_TYPE << "\",\n";
#else
  out << "    \"build_type\": \"\",\n";
#endif
#if defined(CPS_BENCH_CCACHE)
  out << "    \"ccache\": \"" << CPS_BENCH_CCACHE << "\"\n";
#else
  out << "    \"ccache\": \"unknown\"\n";
#endif
  out << "  },\n";
  // Multiplicative tolerance bands for the latency gate, stored with the
  // baseline so the thresholds travel with the numbers they bound.  The
  // percentiles are exact order statistics now, so the bands only have to
  // absorb runner noise (shared CI machines still jitter plenty) — they
  // used to also cover histogram bucket quantisation.
  out << "  \"latency_gate\": {\"p50_band\": 3.0, \"p99_band\": 5.0},\n";
  out << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out << "    {\n";
    out << "      \"id\": \"" << r.id << "\",\n";
    out << "      \"wall_ms\": " << r.wall_ms << ",\n";
    if (r.latency.samples > 0) {
      out << "      \"latency\": {\"samples\": " << r.latency.samples
          << ", \"p50_ms\": " << r.latency.p50_ms
          << ", \"p90_ms\": " << r.latency.p90_ms
          << ", \"p99_ms\": " << r.latency.p99_ms
          << ", \"mean_ms\": " << r.latency.mean_ms
          << ", \"min_ms\": " << r.latency.min_ms
          << ", \"max_ms\": " << r.latency.max_ms << "},\n";
    }
    out << "      \"counters\": {";
    for (std::size_t j = 0; j < r.counters.size(); ++j) {
      out << (j == 0 ? "\n" : ",\n") << "        \"" << r.counters[j].first
          << "\": " << r.counters[j].second;
    }
    out << "\n      },\n";
    out << "      \"derived\": {";
    for (std::size_t j = 0; j < r.derived.size(); ++j) {
      out << (j == 0 ? "\n" : ",\n") << "        \"" << r.derived[j].first
          << "\": " << r.derived[j].second;
    }
    out << "\n      }\n";
    out << "    }" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

// --- Baseline gate -------------------------------------------------------

/// An absolute gate on a derived value: every record that carries
/// `metric` must satisfy it, whatever the baseline's counters say.
struct Gate {
  enum class Kind {
    kAtMost,          ///< value <= bound.
    kAtLeast,         ///< value >= bound.
    kEqualsBaseline,  ///< value == the baseline record's value, exactly.
  };
  const char* metric;
  Kind kind;
  double bound;  ///< Unused for kEqualsBaseline.
  const char* why;
};

constexpr Gate kGates[] = {
    // The indexed heap holds one live entry per candidate, so stale pops
    // mean it regressed to lazy deletion.
    {"stale_pop_ratio", Gate::Kind::kAtMost, 0.9,
     "selection heap fell back to stale-pop-dominated behaviour"},
    // Candidates examined per FRA selection are deterministic: any change
    // is an algorithmic change and needs a baseline regeneration.
    {"scans_per_iteration", Gate::Kind::kEqualsBaseline, 0.0,
     "FRA examined a different number of candidates per selection"},
    // The cavity-local δ tracker exists for its O(changed area) bound.
    {"full_sweep_savings", Gate::Kind::kAtLeast, 10.0,
     "incremental tracker re-evaluated more than 1/10 of the full-sweep "
     "lattice work"},
    // The service's what-if path is cavity-local by construction, so
    // losing to a serial loop of full re-sweeps means the service layer
    // (batching, snapshot sharing, base-state cache) regressed.
    {"speedup_vs_serial", Gate::Kind::kAtLeast, 1.0,
     "the planner service lost to the serial direct-call loop"},
};

// Counters are deterministic, so "regression" is sharp: any counter more
// than 10% above its checked-in baseline fails.  Decreases pass (that is
// an improvement — refresh the baseline to lock it in).  Latency
// percentiles are gated with the baseline's own tolerance bands
// (latency_gate) when both sides carry latency data; old baselines
// without it gate counters only.  Then every record is held to kGates.
int check_against_baseline(const std::string& path,
                           const std::vector<Record>& records) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_perf: cannot read baseline %s\n",
                 path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  bench::Json baseline;
  try {
    baseline = bench::JsonParser::parse(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_perf: baseline %s: %s\n", path.c_str(),
                 e.what());
    return 1;
  }

  std::map<std::string, const Record*> by_id;
  for (const Record& r : records) by_id[r.id] = &r;

  double p50_band = 3.0;
  double p99_band = 5.0;
  if (baseline.has("latency_gate")) {
    const bench::Json& gate = baseline.at("latency_gate");
    if (gate.has("p50_band")) p50_band = gate.at("p50_band").number;
    if (gate.has("p99_band")) p99_band = gate.at("p99_band").number;
  }

  int regressions = 0;
  std::size_t compared = 0;
  std::size_t latency_compared = 0;
  std::map<std::string, const bench::Json*> base_by_id;
  for (const bench::Json& base_rec : baseline.at("records").array) {
    const std::string& id = base_rec.at("id").string;
    base_by_id[id] = &base_rec;
    const auto it = by_id.find(id);
    if (it == by_id.end()) {
      std::fprintf(stderr, "REGRESSION %s: record missing from this run "
                           "(baseline and run modes must match)\n",
                   id.c_str());
      ++regressions;
      continue;
    }
    for (const auto& [name, base_val] : base_rec.at("counters").object) {
      const double base = base_val.number;
      const double cur = static_cast<double>(it->second->counter(name));
      ++compared;
      if (cur > base * 1.10 + 0.5) {
        std::fprintf(stderr,
                     "REGRESSION %s: %s = %.0f exceeds baseline %.0f "
                     "by more than 10%%\n",
                     id.c_str(), name.c_str(), cur, base);
        ++regressions;
      }
    }
    if (base_rec.has("latency") && it->second->latency.samples > 0) {
      const bench::Json& base_lat = base_rec.at("latency");
      // +1 ms of absolute slack: sub-millisecond records quantise into
      // the same few histogram buckets regardless of real speed, so a
      // pure multiplicative band would flake on them.
      const auto gate_percentile = [&](const char* key, double cur,
                                       double band) {
        if (!base_lat.has(key)) return;
        const double base = base_lat.at(key).number;
        ++latency_compared;
        if (cur > base * band + 1.0) {
          std::fprintf(stderr,
                       "REGRESSION %s: %s = %.2f ms exceeds baseline "
                       "%.2f ms by more than %.1fx\n",
                       id.c_str(), key, cur, base, band);
          ++regressions;
        }
      };
      gate_percentile("p50_ms", it->second->latency.p50_ms, p50_band);
      gate_percentile("p99_ms", it->second->latency.p99_ms, p99_band);
    }
  }
  for (const Record& r : records) {
    for (const Gate& gate : kGates) {
      const double* value = r.derived_value(gate.metric);
      if (value == nullptr) continue;
      bool ok = true;
      double bound = gate.bound;
      switch (gate.kind) {
        case Gate::Kind::kAtMost:
          ok = *value <= bound;
          break;
        case Gate::Kind::kAtLeast:
          ok = *value >= bound;
          break;
        case Gate::Kind::kEqualsBaseline: {
          const auto base = base_by_id.find(r.id);
          ok = base != base_by_id.end() && base->second->has("derived") &&
               base->second->at("derived").has(gate.metric);
          if (ok) {
            bound = base->second->at("derived").at(gate.metric).number;
            ok = *value == bound;
          }
          break;
        }
      }
      if (!ok) {
        std::fprintf(stderr, "REGRESSION %s: %s = %.17g against %.17g — %s\n",
                     r.id.c_str(), gate.metric, *value, bound, gate.why);
        ++regressions;
      }
    }
  }
  std::printf("baseline check: %zu counters and %zu latency percentiles "
              "compared against %s, %d regression(s)\n",
              compared, latency_compared, path.c_str(), regressions);
  return regressions == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs_session("perf");
  bench::configure_threads(argc, argv);

  bool quick = false;
  std::string out_path = "BENCH_perf.json";
  std::string baseline_path;
  std::size_t repeats = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = static_cast<std::size_t>(
          std::max(1L, std::atol(argv[++i])));
    }
  }
  bench::print_header("Perf trajectory",
                      quick ? "quadratic-path counters (quick sweep)"
                            : "quadratic-path counters (full sweep)");

  // k = 100, the paper's canonical density, rides in both modes.
  const std::vector<std::size_t> fra_ks =
      quick ? std::vector<std::size_t>{50, 100, 200}
            : std::vector<std::size_t>{100, 500, 2000};
  const std::vector<std::size_t> cma_ns =
      quick ? std::vector<std::size_t>{60, 150}
            : std::vector<std::size_t>{100, 400, 1000};
  const std::size_t slots = quick ? 50 : 200;

  const auto env = bench::canonical_field();
  const field::FieldSlice frame(env, bench::reference_time());
  // Pre-record the window CMA will replay so field lookups are cheap and
  // identical across every link model.
  const auto recorded =
      env.record(trace::minutes(10, 0),
                 trace::minutes(10, 0) + static_cast<double>(slots) + 1.0,
                 5.0, 101, 101);

  std::vector<Record> records;
  int failures = 0;

  // FRA records are milliseconds (unlike the CMA blocks), so they get
  // extra latency samples.
  const std::size_t fra_repeats = std::max<std::size_t>(repeats, 7);
  for (const std::size_t k : fra_ks) {
    const Record fra =
        timed_repeat(fra_repeats, [&] { return run_fra(frame, k); });
    records.push_back(fra);
    std::printf("fra k=%-5zu scans/iter %.1f, wall %.1f ms\n", k,
                *fra.derived_value("scans_per_iteration"), fra.wall_ms);
  }

  for (const std::size_t n : cma_ns) {
    for (const std::string model : {"disk", "distloss", "gilbert"}) {
      const Record cma = timed_repeat(
          repeats, [&] { return run_cma(recorded, n, model, slots); });
      records.push_back(cma);
      std::printf("cma n=%-5zu %-8s attempts/slot %.0f, wall %.0f ms\n", n,
                  model.c_str(), *cma.derived_value("attempts_per_slot"),
                  cma.wall_ms);
    }
  }

  {
    const std::size_t n = quick ? 2000 : 10000;
    const std::size_t density_slots = quick ? 6 : 10;
    const num::Rect region = density_region(n);
    const auto density_env = density_field(region);
    const Record cma = timed_repeat(repeats, [&] {
      return run_cma_density(density_env, region, n, density_slots);
    });
    records.push_back(cma);
    std::printf("cma n=%-5zu density  attempts/slot %.0f, wall %.0f ms\n", n,
                *cma.derived_value("attempts_per_slot"), cma.wall_ms);
  }

  // Delta evaluation of one FRA deployment.  Resolution 256 keeps the
  // lattice big enough that per-point work dominates.
  {
    core::FraPlanner planner;
    const core::Deployment plan = planner.plan(
        frame, core::PlanRequest{bench::kRegion, 200, bench::kRc});
    const std::size_t res = 256;
    double delta_raster = 0.0;
    const Record raster = timed_repeat(repeats, [&] {
      return run_delta_eval(frame, plan.positions, res, delta_raster);
    });
    records.push_back(raster);
    std::printf("delta res=%-4zu locates %llu, wall %.1f ms\n", res,
                static_cast<unsigned long long>(
                    raster.counter("geometry.delaunay.locates")),
                raster.wall_ms);

    // Cavity-local tracker: the same plan with FraConfig::track_delta set
    // yields the same deployment, and its final tracked value must be
    // bit-identical to the full raster sweep just measured — that is the
    // tracker's oracle protocol (DESIGN.md §13).
    double delta_inc = 0.0;
    std::vector<geo::Vec2> inc_pos;
    const Record inc = timed_repeat(repeats, [&] {
      return run_delta_incremental(frame, 200, res, delta_inc, inc_pos);
    });
    records.push_back(inc);
    if (!same_positions(inc_pos, plan.positions)) {
      std::fprintf(stderr,
                   "EQUIVALENCE FAILURE %s: tracked plan selected a "
                   "different deployment than the untracked plan\n",
                   inc.id.c_str());
      ++failures;
    }
    if (delta_inc != delta_raster) {
      std::fprintf(stderr,
                   "EQUIVALENCE FAILURE %s: tracked %.17g vs full raster "
                   "sweep %.17g\n",
                   inc.id.c_str(), delta_inc, delta_raster);
      ++failures;
    }
    const double* savings = inc.derived_value("full_sweep_savings");
    std::printf(
        "delta incremental k=200 res=%zu: %llu events re-evaluated %llu "
        "lattice points (%.1fx fewer than per-event full sweeps)\n",
        res,
        static_cast<unsigned long long>(
            inc.counter("core.delta.inc_events")),
        static_cast<unsigned long long>(
            inc.counter("core.delta.inc_points")),
        savings != nullptr ? *savings : 0.0);
  }

  // Reference-lattice cache: the fig10-style sweep — several deployments
  // evaluated against one frame must sample the reference once and stay
  // bit-identical to the uncached metric.
  {
    constexpr std::size_t kDeployments = 6;
    std::vector<std::vector<geo::Vec2>> deployments;
    for (std::size_t i = 0; i < kDeployments; ++i) {
      core::RandomPlanner rnd(100 + i);
      deployments.push_back(
          rnd.plan(frame, core::PlanRequest{bench::kRegion, 60, bench::kRc})
              .positions);
    }
    std::vector<double> uncached_deltas;
    {
      const core::DeltaMetric plain = bench::canonical_metric();
      for (const auto& positions : deployments) {
        uncached_deltas.push_back(plain.delta_of_deployment(
            frame, positions, core::CornerPolicy::kFieldValue));
      }
    }
    std::vector<double> cached_deltas;
    const Record sweep = timed_repeat(repeats, [&] {
      return run_delta_refcache_sweep(frame, deployments, cached_deltas);
    });
    records.push_back(sweep);
    for (std::size_t i = 0; i < kDeployments; ++i) {
      if (cached_deltas[i] != uncached_deltas[i]) {
        std::fprintf(stderr,
                     "EQUIVALENCE FAILURE %s: deployment %zu cached %.17g "
                     "vs uncached %.17g\n",
                     sweep.id.c_str(), i, cached_deltas[i],
                     uncached_deltas[i]);
        ++failures;
      }
    }
    std::printf(
        "delta refcache m=%zu: %llu hit(s), %llu miss(es), "
        "batched rows %llu\n",
        kDeployments,
        static_cast<unsigned long long>(
            sweep.counter("core.delta.ref_cache_hits")),
        static_cast<unsigned long long>(
            sweep.counter("core.delta.ref_cache_misses")),
        static_cast<unsigned long long>(
            sweep.counter("core.delta.batch_rows")));
  }

  // Planner service: the same deterministic job mix through the service
  // (batched on the pool) and as a serial loop of direct calls, at pool
  // sizes 1 and 4.  The serial half doubles as the bit-identity oracle.
  // The timeline stays disarmed across the whole section: concurrent jobs
  // would interleave counter deltas across intervals meaninglessly, and
  // the service's determinism contract (DESIGN.md §15) excludes armed
  // concurrent batches.
  {
    obs::timeline().set_armed(false);
    const std::size_t prev_threads = par::thread_count();
    const ServiceMix mix = make_service_mix(
        quick,
        std::make_shared<field::FieldSlice>(env, bench::reference_time()));
    std::vector<std::tuple<std::size_t, Record, ServiceObs>> service_runs;
    for (const std::size_t t : {std::size_t{1}, std::size_t{4}}) {
      par::set_thread_count(t);
      std::vector<double> service_deltas, serial_deltas;
      std::vector<std::vector<geo::Vec2>> service_plans, serial_plans;
      bool service_ok = true;
      ServiceObs sobs;
      std::vector<double> pair_ratios;
      auto [service, serial] = timed_repeat_pair(
          repeats,
          [&] {
            return run_service_mix(mix, t, service_deltas, service_plans,
                                   service_ok, sobs);
          },
          [&] {
            return run_serial_mix(mix, t, serial_deltas, serial_plans);
          },
          pair_ratios);
      std::sort(pair_ratios.begin(), pair_ratios.end());
      const double speedup = exact_quantile(pair_ratios, 0.5);
      service.derived.emplace_back("speedup_vs_serial", speedup);
      if (!service_ok) {
        std::fprintf(stderr,
                     "EQUIVALENCE FAILURE %s: one or more jobs reported "
                     "errors\n",
                     service.id.c_str());
        ++failures;
      }
      if (service_deltas.size() != serial_deltas.size()) {
        std::fprintf(stderr,
                     "EQUIVALENCE FAILURE %s: %zu results vs %zu direct\n",
                     service.id.c_str(), service_deltas.size(),
                     serial_deltas.size());
        ++failures;
      } else {
        for (std::size_t i = 0; i < service_deltas.size(); ++i) {
          if (service_deltas[i] != serial_deltas[i]) {
            std::fprintf(stderr,
                         "EQUIVALENCE FAILURE %s: job %zu delta %.17g vs "
                         "direct %.17g\n",
                         service.id.c_str(), i, service_deltas[i],
                         serial_deltas[i]);
            ++failures;
          }
        }
      }
      if (service_plans.size() != serial_plans.size()) {
        std::fprintf(stderr,
                     "EQUIVALENCE FAILURE %s: %zu plans vs %zu direct\n",
                     service.id.c_str(), service_plans.size(),
                     serial_plans.size());
        ++failures;
      } else {
        for (std::size_t i = 0; i < service_plans.size(); ++i) {
          if (!same_positions(service_plans[i], serial_plans[i])) {
            std::fprintf(stderr,
                         "EQUIVALENCE FAILURE %s: plan %zu selected a "
                         "different deployment than the direct planner\n",
                         service.id.c_str(), i);
            ++failures;
          }
        }
      }
      const double* p50 = service.derived_value("job_latency_p50_ms");
      const double* p99 = service.derived_value("job_latency_p99_ms");
      std::printf(
          "service t=%zu %zu jobs: %.0f jobs/s (x%.2f vs serial), "
          "job p50 %.2f ms p99 %.2f ms, wall %.0f ms -> %.0f ms\n",
          t, mix.total(),
          service.derived_value("throughput_jps") != nullptr
              ? *service.derived_value("throughput_jps")
              : 0.0,
          speedup, p50 != nullptr ? *p50 : 0.0, p99 != nullptr ? *p99 : 0.0,
          serial.wall_ms, service.wall_ms);
      records.push_back(service);
      records.push_back(serial);
      service_runs.emplace_back(t, std::move(service), sobs);
    }
    par::set_thread_count(prev_threads);
    obs::timeline().set_armed(true);
    write_service_sidecar(bench::output_dir() + "/perf_service_metrics.json",
                          quick ? "quick" : "full", service_runs);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_perf: cannot write %s\n", out_path.c_str());
    return 1;
  }
  write_json(out, quick ? "quick" : "full", records);
  std::printf("wrote %s (%zu records)\n", out_path.c_str(), records.size());

  if (failures > 0) {
    std::fprintf(stderr, "bench_perf: %d equivalence failure(s)\n", failures);
    return 1;
  }
  if (!baseline_path.empty()) {
    return check_against_baseline(baseline_path, records);
  }
  return 0;
}

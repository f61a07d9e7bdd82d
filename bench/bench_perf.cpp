// Perf-trajectory harness: records the algorithmic work of each
// production hot path as deterministic counters and gates it exactly.
// It sweeps FRA planning (k in {100, 500, 2000}; quick {50, 100, 200}),
// CMA under each link model (N in {100, 400, 1000} for 200 slots; quick
// {60, 150} for 50) and at constant density (N = 10000; quick 2000),
// δ evaluation (one raster sweep at resolution 256, the cavity-local
// tracker over the same FRA plan, a reference-cached multi-deployment
// sweep), and one deterministic Score / Plan / WhatIf job mix through a
// PlannerService at pool sizes 1 and 4.  With obs compiled in (the
// default build), each record's counters and derived values are the same
// bits at every pool size and on every machine, so `--check BASELINE.json` fails on any value that differs
// from the baseline in either direction, on any record or key present on
// one side only, and on the absolute bounds of kGates; a moved counter
// needs a baseline regeneration in the same change.  The in-bench
// equivalence checks (tracked vs swept δ, cached vs uncached δ, service
// at each pool size vs one serial loop of direct calls) exit non-zero on
// any bit difference.  Wall time is measured by perfbench/, not here.
// Flags: --quick, --out PATH (default BENCH_perf.json), --check
// BASELINE.json, --threads N.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
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

// One sweep point: an id, the raw counters that describe the algorithmic
// work done, and a few derived per-unit rates for reading.
struct Record {
  std::string id;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> derived;

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

std::uint64_t cval(const char* name) {
  return obs::registry().counter(name).value();
}

/// Copies the named registry counters into `rec`, in list order.
template <std::size_t N>
void read_counters(Record& rec, const char* const (&names)[N]) {
  for (const char* name : names) rec.counters.emplace_back(name, cval(name));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- FRA sweep -----------------------------------------------------------

Record run_fra(const field::Field& frame, std::size_t k) {
  Record rec;
  rec.id = "fra.k" + std::to_string(k);

  core::FraPlanner planner;  // error_grid = 100, the paper's lattice.

  obs::registry().reset();
  planner.plan(frame, core::PlanRequest{bench::kRegion, k, bench::kRc});

  read_counters(rec, {"core.fra.iterations", "core.fra.candidates_scanned",
                      "core.fra.candidates_rebucketed",
                      "core.fra.mst_recomputes",
                      "core.fra.foresight_triggers",
                      "graph.relay.mst_recomputes"});

  // Candidates examined per selection, filtered rescans included.
  rec.derived.emplace_back(
      "scans_per_iteration",
      ratio(static_cast<double>(cval("core.fra.candidates_scanned")),
            static_cast<double>(cval("core.fra.iterations"))));
  return rec;
}

// --- CMA sweep -----------------------------------------------------------

// Bus delivery counters, read by both CMA sweeps.
constexpr const char* kBusCounters[] = {
    "net.bus.transmit_attempts",   "net.bus.deliveries",
    "net.bus.delivery_failures",   "net.bus.messages_sent",
    "net.bus.drops_total",         "net.bus.drop.dead_sender",
    "net.bus.drop.dead_receiver",  "net.bus.drop.out_of_range",
    "net.bus.drop.link_loss_draw", "net.bus.drop.ttl_expired"};

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
  sim.run(slots);

  read_counters(rec, kBusCounters);
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
  sim.run(slots);

  read_counters(rec, kBusCounters);
  read_counters(rec, {"core.cma.shard.migrations",
                      "core.cma.shard.ghost_exchanged",
                      "core.cma.shard.match_pairs"});
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
  delta_out = metric.delta_of_deployment(frame, positions,
                                         core::CornerPolicy::kFieldValue);

  read_counters(rec, {"geometry.delaunay.locates",
                      "geometry.delaunay.walk_steps", "core.delta.batch_rows",
                      "core.delta.raster_spans",
                      "core.delta.raster_fast_assigns",
                      "core.delta.raster_fallback_locates"});
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
  const core::FraResult result = planner.plan_detailed(
      frame, core::PlanRequest{bench::kRegion, k, bench::kRc});
  delta_out = result.final_delta;
  positions_out = result.deployment.positions;

  read_counters(rec, {"core.delta.inc_events", "core.delta.inc_points",
                      "core.delta.inc_rows", "core.delta.inc_relocates",
                      "core.delta.inc_rebuilds", "geometry.delaunay.locates"});

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
  for (const auto& positions : deployments) {
    deltas_out.push_back(metric.delta_of_deployment(
        frame, positions, core::CornerPolicy::kFieldValue));
  }

  read_counters(rec, {"core.delta.ref_cache_hits",
                      "core.delta.ref_cache_misses", "core.delta.batch_rows",
                      "geometry.delaunay.locates"});
  rec.derived.emplace_back(
      "hit_ratio",
      ratio(static_cast<double>(cval("core.delta.ref_cache_hits")),
            static_cast<double>(cval("core.delta.ref_cache_hits") +
                                cval("core.delta.ref_cache_misses"))));
  return rec;
}

// --- Service mix ---------------------------------------------------------

// One deterministic job mix, submitted through the PlannerService at each
// pool size (run_service_mix) and run once as a serial loop of the
// equivalent direct calls (run_serial_mix).  The serial loop is the
// bit-identity oracle: Score jobs against
// DeltaMetric::delta_of_deployment, Plan jobs against Planner::plan, and
// WhatIf jobs against a fresh DeltaMetric::delta of the identically
// mutated base triangulation.  It is also the cost the service is gated
// against: one full lattice sweep per job, where the service's what-ifs
// re-evaluate only the lattice points their event changed.
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

/// What one pass over the mix returns: every job's δ in submission order,
/// and the positions each Plan job selected.
struct MixOutputs {
  std::vector<double> deltas;
  std::vector<std::vector<geo::Vec2>> plans;
};

Record run_service_mix(const ServiceMix& mix, std::size_t threads,
                       MixOutputs& out, int& failures) {
  Record rec;
  rec.id = "service.mix.t" + std::to_string(threads);

  obs::registry().reset();
  core::PlannerService service;
  const auto snapshot = service.intern(mix.field);
  // Prewarm the shared reference lattice: the one cache miss lands here,
  // deterministically, instead of racing inside the first batch.
  service.prewarm(snapshot, bench::kRegion, bench::kDeltaResolution);

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

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const core::JobResult r = futures[i].get();
    if (!r.ok) {
      std::fprintf(stderr, "EQUIVALENCE FAILURE %s: job %zu failed: %s\n",
                   rec.id.c_str(), i, r.error.c_str());
      ++failures;
    }
    out.deltas.push_back(r.delta);
    if (i >= mix.scores.size() &&
        i < mix.scores.size() + mix.plans.size()) {
      out.plans.push_back(r.deployment.positions);
    }
  }

  read_counters(rec, {"service.jobs.submitted", "service.jobs.completed",
                      "service.jobs.score", "service.jobs.plan",
                      "service.jobs.whatif", "service.snapshot.hits",
                      "service.snapshot.misses", "service.base_state.hits",
                      "service.base_state.misses",
                      "core.delta.ref_cache_hits",
                      "core.delta.ref_cache_misses", "core.delta.inc_events",
                      "core.delta.inc_points"});
  // Lattice points δ-evaluated: the serial loop sweeps the whole lattice
  // once per job; the service sweeps it once per score, per plan and per
  // what-if base state it builds, and each what-if re-evaluates only the
  // inc_points its event changed.  Counted, not timed, so the ratio is
  // the same at every pool size and on every machine.
  const double lattice = static_cast<double>(bench::kDeltaResolution *
                                             bench::kDeltaResolution);
  const double full_sweeps = static_cast<double>(
      rec.counter("service.jobs.score") + rec.counter("service.jobs.plan") +
      rec.counter("service.base_state.misses"));
  rec.derived.emplace_back(
      "lattice_point_ratio",
      ratio(static_cast<double>(mix.total()) * lattice,
            full_sweeps * lattice +
                static_cast<double>(rec.counter("core.delta.inc_points"))));
  return rec;
}

Record run_serial_mix(const ServiceMix& mix, MixOutputs& out) {
  Record rec;
  rec.id = "service.mix.serial";

  obs::registry().reset();
  core::DeltaMetric metric(bench::kRegion, bench::kDeltaResolution);
  metric.reference_lattice(*mix.field);  // Same prewarm as the service.

  for (const auto& d : mix.scores) {
    out.deltas.push_back(metric.delta_of_deployment(
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
    out.deltas.push_back(metric.delta_of_deployment(
        *mix.field, d.positions, core::CornerPolicy::kFieldValue));
    out.plans.push_back(std::move(d.positions));
  }
  // What-ifs the pre-service way: copy the base triangulation, mutate,
  // full re-sweep.  This is the oracle protocol (DESIGN.md §13/§15).
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
    out.deltas.push_back(metric.delta(*mix.field, dt));
  }

  read_counters(rec, {"core.delta.ref_cache_hits",
                      "core.delta.ref_cache_misses",
                      "geometry.delaunay.locates"});
  return rec;
}

// --- Equivalence oracles -------------------------------------------------

bool same_positions(const std::vector<geo::Vec2>& a,
                    const std::vector<geo::Vec2>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].x != b[i].x || a[i].y != b[i].y) return false;
  return true;
}

/// Reports, and counts, every job whose service result differs in any bit
/// from the serial loop's.
int compare_mix(const std::string& id, const MixOutputs& service,
                const MixOutputs& serial) {
  if (service.deltas.size() != serial.deltas.size() ||
      service.plans.size() != serial.plans.size()) {
    std::fprintf(stderr,
                 "EQUIVALENCE FAILURE %s: %zu results and %zu plans vs "
                 "%zu and %zu direct\n",
                 id.c_str(), service.deltas.size(), service.plans.size(),
                 serial.deltas.size(), serial.plans.size());
    return 1;
  }
  int failures = 0;
  for (std::size_t i = 0; i < service.deltas.size(); ++i) {
    if (service.deltas[i] != serial.deltas[i]) {
      std::fprintf(stderr,
                   "EQUIVALENCE FAILURE %s: job %zu delta %.17g vs direct "
                   "%.17g\n",
                   id.c_str(), i, service.deltas[i], serial.deltas[i]);
      ++failures;
    }
  }
  for (std::size_t i = 0; i < service.plans.size(); ++i) {
    if (!same_positions(service.plans[i], serial.plans[i])) {
      std::fprintf(stderr,
                   "EQUIVALENCE FAILURE %s: plan %zu selected a different "
                   "deployment than the direct planner\n",
                   id.c_str(), i);
      ++failures;
    }
  }
  return failures;
}

// --- JSON output ---------------------------------------------------------

void write_json(std::ostream& out, const std::string& mode,
                const std::vector<Record>& records) {
  out.precision(17);
  const char* threads_env = std::getenv("CPS_THREADS");
  out << "{\n";
  out << "  \"schema\": \"cps.bench_perf.v2\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"threads\": " << par::thread_count() << ",\n";
  // Which host and build produced this file; the baseline gate reads only
  // `records`, so none of this affects --check.
  out << "  \"machine\": {\n";
  out << "    \"hardware_threads\": " << par::hardware_threads() << ",\n";
  out << "    \"cps_threads_env\": \""
      << (threads_env != nullptr ? threads_env : "") << "\",\n";
  out << "    \"pool_threads\": " << par::thread_count() << ",\n";
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
  out << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out << "    {\n";
    out << "      \"id\": \"" << r.id << "\",\n";
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

/// An absolute lower bound on a derived value: every record that carries
/// `metric` must reach it, and it still holds after the baseline is
/// regenerated.
struct Gate {
  const char* metric;
  double at_least;
  const char* why;
};

constexpr Gate kGates[] = {
    // The cavity-local δ tracker exists for its O(changed area) bound.
    {"full_sweep_savings", 10.0,
     "incremental tracker re-evaluated more than 1/10 of the full-sweep "
     "lattice work"},
    // The service's what-if path is cavity-local by construction, so
    // evaluating more lattice points than a serial loop of full re-sweeps
    // means the service layer (base-state cache, incremental what-ifs)
    // regressed.
    {"lattice_point_ratio", 1.0,
     "the planner service evaluated more lattice points than the serial "
     "direct-call loop"},
};

/// Compares one record section ("counters" or "derived") exactly, key by
/// key, in both directions; returns the number of values compared.
template <typename T>
std::size_t compare_section(
    const std::string& id, const char* section, const bench::Json& base,
    const std::vector<std::pair<std::string, T>>& values, int& regressions) {
  std::map<std::string, double> current;
  for (const auto& [name, v] : values) current[name] = static_cast<double>(v);
  for (const auto& [name, base_val] : base.object) {
    const auto it = current.find(name);
    if (it == current.end()) {
      std::fprintf(stderr, "REGRESSION %s: %s.%s missing from this run\n",
                   id.c_str(), section, name.c_str());
      ++regressions;
    } else if (it->second != base_val.number) {
      std::fprintf(stderr, "REGRESSION %s: %s.%s = %.17g, baseline %.17g\n",
                   id.c_str(), section, name.c_str(), it->second,
                   base_val.number);
      ++regressions;
    }
  }
  for (const auto& [name, v] : current) {
    if (!base.has(name)) {
      std::fprintf(stderr, "REGRESSION %s: %s.%s = %.17g missing from the "
                           "baseline\n",
                   id.c_str(), section, name.c_str(), v);
      ++regressions;
    }
  }
  return current.size();
}

// Every counter and derived value is deterministic, so the baseline must
// match exactly: a value that moves in either direction, or a record or
// key present on one side only, is a regression (an improvement too —
// regenerate the baseline to lock it in).  Then every record is held to
// kGates.
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

  int regressions = 0;
  std::size_t compared = 0;
  std::set<std::string> base_ids;
  for (const bench::Json& base_rec : baseline.at("records").array) {
    const std::string& id = base_rec.at("id").string;
    base_ids.insert(id);
    const auto it = by_id.find(id);
    if (it == by_id.end()) {
      std::fprintf(stderr, "REGRESSION %s: record missing from this run "
                           "(baseline and run modes must match)\n",
                   id.c_str());
      ++regressions;
      continue;
    }
    compared += compare_section(id, "counters", base_rec.at("counters"),
                                it->second->counters, regressions);
    compared += compare_section(id, "derived", base_rec.at("derived"),
                                it->second->derived, regressions);
  }
  for (const Record& r : records) {
    if (base_ids.count(r.id) == 0) {
      std::fprintf(stderr, "REGRESSION %s: record missing from the "
                           "baseline\n",
                   r.id.c_str());
      ++regressions;
    }
    for (const Gate& gate : kGates) {
      const double* value = r.derived_value(gate.metric);
      if (value == nullptr) continue;
      if (!(*value >= gate.at_least)) {
        std::fprintf(stderr, "REGRESSION %s: %s = %.17g against at least %g "
                             "— %s\n",
                     r.id.c_str(), gate.metric, *value, gate.at_least,
                     gate.why);
        ++regressions;
      }
    }
  }
  std::printf("baseline check: %zu values compared exactly against %s, "
              "%d regression(s)\n",
              compared, path.c_str(), regressions);
  return regressions == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs_session("perf");
  bench::configure_threads(argc, argv);

  bool quick = false;
  std::string out_path = "BENCH_perf.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
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

  for (const std::size_t k : fra_ks) {
    records.push_back(run_fra(frame, k));
    std::printf("fra k=%-5zu scans/iter %.1f\n", k,
                *records.back().derived_value("scans_per_iteration"));
  }

  for (const std::size_t n : cma_ns) {
    for (const std::string model : {"disk", "distloss", "gilbert"}) {
      records.push_back(run_cma(recorded, n, model, slots));
      std::printf("cma n=%-5zu %-8s attempts/slot %.0f\n", n, model.c_str(),
                  *records.back().derived_value("attempts_per_slot"));
    }
  }

  {
    const std::size_t n = quick ? 2000 : 10000;
    const std::size_t density_slots = quick ? 6 : 10;
    const num::Rect region = density_region(n);
    const auto density_env = density_field(region);
    records.push_back(run_cma_density(density_env, region, n, density_slots));
    std::printf("cma n=%-5zu density  attempts/slot %.0f\n", n,
                *records.back().derived_value("attempts_per_slot"));
  }

  // Delta evaluation of one FRA deployment.  Resolution 256 keeps the
  // lattice big enough that per-point work dominates.
  {
    core::FraPlanner planner;
    const core::Deployment plan = planner.plan(
        frame, core::PlanRequest{bench::kRegion, 200, bench::kRc});
    const std::size_t res = 256;
    double delta_raster = 0.0;
    const Record raster =
        run_delta_eval(frame, plan.positions, res, delta_raster);
    records.push_back(raster);
    std::printf("delta res=%-4zu locates %llu\n", res,
                static_cast<unsigned long long>(
                    raster.counter("geometry.delaunay.locates")));

    // Cavity-local tracker: the same plan with FraConfig::track_delta set
    // yields the same deployment, and its final tracked value must be
    // bit-identical to the full raster sweep above — that is the
    // tracker's oracle protocol (DESIGN.md §13).
    double delta_inc = 0.0;
    std::vector<geo::Vec2> inc_pos;
    const Record inc =
        run_delta_incremental(frame, 200, res, delta_inc, inc_pos);
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
    const Record sweep =
        run_delta_refcache_sweep(frame, deployments, cached_deltas);
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
  // at pool sizes 1 and 4, each compared bit for bit with one serial loop
  // of direct calls.  The timeline stays disarmed across the whole
  // section: concurrent jobs would interleave counter deltas across
  // intervals meaninglessly, and the service's determinism contract
  // (DESIGN.md §15) excludes armed concurrent batches.
  {
    obs::timeline().set_armed(false);
    const ServiceMix mix = make_service_mix(
        quick,
        std::make_shared<field::FieldSlice>(env, bench::reference_time()));
    MixOutputs serial;
    records.push_back(run_serial_mix(mix, serial));
    const std::size_t prev_threads = par::thread_count();
    for (const std::size_t t : {std::size_t{1}, std::size_t{4}}) {
      par::set_thread_count(t);
      MixOutputs service;
      records.push_back(run_service_mix(mix, t, service, failures));
      failures += compare_mix(records.back().id, service, serial);
      std::printf("service t=%zu %zu jobs: %.2fx fewer lattice points than "
                  "the serial loop\n",
                  t, mix.total(),
                  *records.back().derived_value("lattice_point_ratio"));
    }
    par::set_thread_count(prev_threads);
    obs::timeline().set_armed(true);
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

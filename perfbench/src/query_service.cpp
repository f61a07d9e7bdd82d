// query-service: what-if traffic through PlannerService.  Set-up samples
// six 201 x 201 GreenOrbs snapshots (10:00 to 10:05), interns and
// prewarms them, and plans twelve distinct FRA base deployments (more than
// the default base-state capacity of 8).  The job cycle is 70% WhatIf
// (move / insert / remove), 20% Score of freshly perturbed base
// deployments (a full raster sweep) and 10% Plan (FRA, k = 30, scored);
// bases and snapshots are drawn with a skew.  One client keeps 4 jobs
// outstanding on a pool of size 2; each job is timed from submit until
// the client, waiting on its jobs in submission order, sees the future
// ready.
#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <string_view>

#include "core/delta.hpp"
#include "core/fra.hpp"
#include "core/planner_service.hpp"
#include "core/reconstruction.hpp"
#include "field/grid_field.hpp"
#include "geometry/delaunay.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "trace/greenorbs.hpp"

namespace perfbench {
namespace {

namespace core = cps::core;
using cps::geo::Vec2;

struct Sizes {
  std::size_t snapshots;
  std::size_t grid;  ///< Snapshot samples per axis.
  std::size_t bases;
  std::size_t base_k;
  std::size_t plan_k;
  std::size_t jobs;  ///< Length of the job cycle.
};

Sizes sizes(const Options& opt) {
  return opt.smoke ? Sizes{2, 51, 3, 12, 8, 30}
                   : Sizes{6, 201, 12, 40, 30, 240};
}

constexpr std::size_t kOutstanding = 4;

/// An untraced window runs in this many segments with a fresh set-up
/// between two; setup_s is the median over those and the first.
constexpr std::size_t kSegments = 20;

/// Bases b and b + snapshots share a frame; a coarser candidate lattice
/// for the second keeps the two distinct at the same k.
std::size_t base_lattice(std::size_t b, const Sizes& sz) {
  return b < sz.snapshots ? 100 : 97;
}

/// Everything set-up builds.
struct State {
  cps::trace::GreenOrbsField field{cps::trace::GreenOrbsConfig{}};
  std::vector<std::shared_ptr<const cps::field::GridField>> frames;
  std::vector<std::shared_ptr<const core::Deployment>> bases;
  /// Base b was planned on frame base_frame[b].
  std::vector<std::size_t> base_frame;
  std::unique_ptr<core::PlannerService> service;
};

std::unique_ptr<State> build_state(const Sizes& sz,
                                   const std::vector<double>& minutes,
                                   SpanRecorder& spans) {
  auto s = std::make_unique<State>();
  for (double minute : minutes) {
    const ScopedSpan span(spans, "trace.record", -1);
    s->frames.push_back(std::make_shared<const cps::field::GridField>(
        s->field.snapshot(minute, sz.grid, sz.grid)));
  }
  s->service = std::make_unique<core::PlannerService>();
  for (const auto& frame : s->frames) {
    const auto snapshot = s->service->intern(frame);
    const ScopedSpan span(spans, "core.delta.reference", -1);
    s->service->prewarm(snapshot, kRegion, kDeltaResolution);
  }
  for (std::size_t b = 0; b < sz.bases; ++b) {
    const std::size_t f = b % s->frames.size();
    s->base_frame.push_back(f);
    s->bases.push_back(std::make_shared<const core::Deployment>(
        core::FraPlanner().plan(
            *s->frames[f], core::PlanRequest{kRegion, sz.base_k, kRc,
                                             base_lattice(b, sz)})));
  }
  return s;
}

enum class Kind { kWhatIf, kScore, kPlan };

struct Job {
  Kind kind = Kind::kWhatIf;
  std::size_t frame = 0;
  std::size_t base = 0;
  core::WhatIfJob::Op op = core::WhatIfJob::Op::kMove;
  std::size_t node = 0;
  Vec2 to;
  std::vector<Vec2> positions;  ///< Score: the perturbed deployment.
};

/// `draws` picks among `items` with Zipf popularity (item r gets a share
/// proportional to 1 / (r + 1)): exact counts by largest remainder, in a
/// seeded order.  Every seed sees the same popularity, so δ averages do not
/// swing with which item a seed happens to make hot.
std::vector<std::size_t> skewed_picks(std::size_t items, std::size_t draws,
                                      InputRng& rng) {
  double total = 0.0;
  for (std::size_t r = 0; r < items; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
  }
  std::vector<std::size_t> count(items);
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t given = 0;
  for (std::size_t r = 0; r < items; ++r) {
    const double exact = static_cast<double>(draws) /
                        (total * static_cast<double>(r + 1));
    count[r] = static_cast<std::size_t>(exact);
    given += count[r];
    remainder.push_back({exact - static_cast<double>(count[r]), r});
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (std::size_t i = 0; given < draws; ++i, ++given) {
    ++count[remainder[i].second];
  }
  std::vector<std::size_t> picks;
  for (std::size_t r = 0; r < items; ++r) {
    picks.insert(picks.end(), count[r], r);
  }
  for (std::size_t i = picks.size() - 1; i > 0; --i) {
    std::swap(picks[i], picks[rng.below(i + 1)]);
  }
  return picks;
}

std::vector<Job> make_jobs(const Sizes& sz, const State& s,
                           std::uint64_t seed) {
  InputRng rng(stream_seed(seed, 5));
  // Each run of ten jobs holds 7 WhatIf and 2 Score in a seeded order,
  // then 1 Plan: exact shares, and no seed packs expensive Plans together.
  std::vector<Job> jobs(sz.jobs);
  for (std::size_t g = 0; g + 10 <= jobs.size(); g += 10) {
    Kind kinds[9];
    for (std::size_t i = 0; i < 9; ++i) {
      kinds[i] = i < 7 ? Kind::kWhatIf : Kind::kScore;
    }
    for (std::size_t i = 8; i > 0; --i) {
      std::swap(kinds[i], kinds[rng.below(i + 1)]);
    }
    for (std::size_t i = 0; i < 9; ++i) jobs[g + i].kind = kinds[i];
    jobs[g + 9].kind = Kind::kPlan;
  }
  const std::size_t plans = jobs.size() / 10;
  const std::vector<std::size_t> base_picks =
      skewed_picks(sz.bases, jobs.size() - plans, rng);
  const std::vector<std::size_t> frame_picks =
      skewed_picks(sz.snapshots, plans, rng);
  std::size_t next_base = 0;
  std::size_t next_frame = 0;
  for (Job& job : jobs) {
    if (job.kind == Kind::kPlan) {
      job.frame = frame_picks[next_frame++];
      continue;
    }
    job.base = base_picks[next_base++];
    job.frame = s.base_frame[job.base];
    const auto& base = s.bases[job.base]->positions;
    if (job.kind == Kind::kWhatIf) {
      static constexpr core::WhatIfJob::Op kOps[] = {
          core::WhatIfJob::Op::kMove, core::WhatIfJob::Op::kInsert,
          core::WhatIfJob::Op::kRemove};
      job.op = kOps[rng.below(3)];
      job.node = rng.below(base.size());
      job.to = {rng.uniform(0.5, 99.5), rng.uniform(0.5, 99.5)};
    } else {
      for (const Vec2& p : base) {
        job.positions.push_back(
            {std::clamp(p.x + rng.uniform(-2.0, 2.0), 0.0, 100.0),
             std::clamp(p.y + rng.uniform(-2.0, 2.0), 0.0, 100.0)});
      }
    }
  }
  return jobs;
}

/// The deployment a job produces or scores.
std::vector<Vec2> deployment_of(const Job& job, const State& s,
                                const core::JobResult& r) {
  switch (job.kind) {
    case Kind::kPlan:
      return r.deployment.positions;
    case Kind::kScore:
      return job.positions;
    case Kind::kWhatIf:
      break;
  }
  std::vector<Vec2> pos = s.bases[job.base]->positions;
  switch (job.op) {
    case core::WhatIfJob::Op::kMove:
      pos[job.node] = job.to;
      break;
    case core::WhatIfJob::Op::kInsert:
      pos.push_back(job.to);
      break;
    case core::WhatIfJob::Op::kRemove:
      pos.erase(pos.begin() + static_cast<std::ptrdiff_t>(job.node));
      break;
  }
  return pos;
}

/// The direct call a job must equal (DESIGN.md §15): δ of the job and,
/// for Plan jobs, the deployment.
core::JobResult direct_call(const Job& job, const State& s, const Sizes& sz,
                            const core::DeltaMetric& metric) {
  const cps::field::Field& frame = *s.frames[job.frame];
  core::JobResult r;
  switch (job.kind) {
    case Kind::kPlan:
      r.deployment = core::FraPlanner().plan(
          frame, core::PlanRequest{kRegion, sz.plan_k, kRc});
      r.delta = metric.delta_of_deployment(frame, r.deployment.positions,
                                           core::CornerPolicy::kFieldValue);
      return r;
    case Kind::kScore:
      r.delta = metric.delta_of_deployment(frame, job.positions,
                                           core::CornerPolicy::kFieldValue);
      return r;
    case Kind::kWhatIf:
      break;
  }
  const auto& base = s.bases[job.base]->positions;
  cps::geo::Delaunay dt = core::reconstruct_surface(
      core::take_samples(frame, base), kRegion,
      core::CornerPolicy::kFieldValue, &frame);
  // Node i is vertex kCorners + i when every base position made a vertex.
  if (dt.vertex_count() != cps::geo::Delaunay::kCorners + base.size()) {
    r.ok = false;
    r.error = "base deployment has coincident positions";
    return r;
  }
  const int vertex =
      cps::geo::Delaunay::kCorners + static_cast<int>(job.node);
  switch (job.op) {
    case core::WhatIfJob::Op::kMove:
      dt.move_vertex(vertex, job.to, frame.value(job.to));
      break;
    case core::WhatIfJob::Op::kInsert:
      dt.insert(job.to, frame.value(job.to));
      break;
    case core::WhatIfJob::Op::kRemove:
      dt.remove(vertex);
      break;
  }
  r.delta = metric.delta(frame, dt);
  return r;
}

/// One completed job as the client saw it.
struct Done {
  std::size_t job = 0;
  double latency_ms = 0.0;  ///< Client-side: submit to future ready.
  double stamped_ms = 0.0;  ///< JobResult::latency_ms (service-side).
  double exec_ms = 0.0;     ///< JobResult::exec_ms.
};

/// The first result of a job; every later run of it must match.
struct Expected {
  bool have = false;
  core::JobResult result;
};

}  // namespace

Report run_query_service(const Options& opt) {
  Report report;
  const Sizes sz = sizes(opt);
  SpanRecorder spans;
  EndToEnd e2e;
  std::vector<double> record_ms;
  std::vector<double> reference_ms;

  // The service holds the latest frames of one field: one a minute from
  // 10:00.  Fixed instants keep the snapshots' roughness from swinging
  // with the seed; the seed drives the job mix and which bases are hot.
  std::vector<double> minutes;
  for (std::size_t i = 0; i < sz.snapshots; ++i) {
    minutes.push_back(cps::trace::minutes(10, 0) + static_cast<double>(i));
  }

  std::unique_ptr<State> state;
  // Fresh set-up, timed; traced runs also keep its spans.
  const auto rebuild = [&] {
    state.reset();
    spans.set_active(opt.trace);
    const std::size_t first = spans.spans().size();
    const Clock::time_point t0 = Clock::now();
    state = build_state(sz, minutes, spans);
    e2e.setup_s.push_back(ms_since(t0, Clock::now()) / 1000.0);
    spans.set_active(false);
    double rec = 0.0;
    double ref = 0.0;
    for (std::size_t i = first; i < spans.spans().size(); ++i) {
      const Span& s = spans.spans()[i];
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      (std::string_view(s.name) == "trace.record" ? rec : ref) += ms;
    }
    record_ms.push_back(rec);
    reference_ms.push_back(ref);
  };
  rebuild();
  const std::vector<Job> jobs = make_jobs(sz, *state, opt.seed);

  struct InFlight {
    std::future<core::JobResult> future;
    Clock::time_point submitted;
    std::size_t job = 0;
  };
  std::deque<InFlight> in_flight;
  std::size_t cursor = 0;

  const auto submit = [&](std::size_t idx) {
    const Job& job = jobs[idx];
    InFlight f;
    f.job = idx;
    f.submitted = Clock::now();
    // Clients hold fields, not snapshots: interning per job is the
    // snapshot cache's traffic.
    core::PlannerService& service = *state->service;
    const auto snapshot = service.intern(state->frames[job.frame]);
    switch (job.kind) {
      case Kind::kWhatIf:
        f.future = service.submit(core::WhatIfJob{
            snapshot, state->bases[job.base], job.op, job.node, job.to,
            kRegion, kDeltaResolution});
        break;
      case Kind::kScore:
        f.future = service.submit(core::ScoreJob{
            snapshot, core::Deployment{job.positions}, kRegion,
            kDeltaResolution});
        break;
      case Kind::kPlan:
        f.future = service.submit(core::PlanJob{
            snapshot, core::PlannerKind::kFra,
            core::PlanRequest{kRegion, sz.plan_k, kRc}, kDeltaResolution});
        break;
    }
    in_flight.push_back(std::move(f));
  };
  // Per job: its first result, and its runs and mismatching runs inside
  // timed windows.
  std::vector<Expected> expected(jobs.size());
  std::vector<std::size_t> window_runs(jobs.size(), 0);
  std::vector<std::size_t> window_bad(jobs.size(), 0);

  // Waits for the oldest job; the client observes completions in order.
  // The comparison with the job's first result is a few word compares.
  const auto complete = [&](bool in_window) {
    InFlight f = std::move(in_flight.front());
    in_flight.pop_front();
    core::JobResult r = f.future.get();
    const Clock::time_point ready = Clock::now();
    spans.add("op", f.submitted, ready, static_cast<std::int64_t>(f.job));
    Expected& ex = expected[f.job];
    const bool match =
        !ex.have || (r.ok == ex.result.ok &&
                     same_bits(r.delta, ex.result.delta) &&
                     same_positions(r.deployment.positions,
                                    ex.result.deployment.positions));
    if (in_window) {
      ++window_runs[f.job];
      if (!match) ++window_bad[f.job];
    }
    if (!match) {
      report.fail("query-service: job " + std::to_string(f.job) +
                  " gave a different result on a repeat");
    }
    const Done d{f.job, ms_since(f.submitted, ready), r.latency_ms,
                 r.exec_ms};
    if (!ex.have) {
      ex.have = true;
      ex.result = std::move(r);
    }
    return d;
  };

  // Closed loop for `budget_s` seconds of wall time, then a drain, into
  // done[0, done_n).  Returns the window's wall seconds, first submit to
  // last completion.  The buffer is sized and touched up front so the
  // benchmark's own memory does not grow with the op count.
  std::vector<Done> done(static_cast<std::size_t>(2500.0 * opt.seconds) +
                         1024);
  std::size_t done_n = 0;
  const auto record = [&](const Done& d) {
    if (done_n == done.size()) done.push_back(d);
    done[done_n++] = d;
  };
  const auto run_window = [&](double budget_s, bool in_window) {
    done_n = 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(budget_s));
    while (Clock::now() < stop) {
      if (in_flight.size() < kOutstanding) {
        submit(cursor);
        cursor = (cursor + 1) % jobs.size();
      } else {
        record(complete(in_window));
      }
    }
    while (!in_flight.empty()) record(complete(in_window));
    return ms_since(start, Clock::now()) / 1000.0;
  };

  run_window(0.05 * opt.seconds, false);  // Warm-up.
  std::vector<Done> traced;
  std::vector<double> untraced_ms;
  core::PlannerService::Stats traced_stats;
  if (!opt.trace) {
    // The window in segments with a fresh set-up between two, outside the
    // timed seconds.  A rebuilt state serves exactly like the one it
    // replaces.
    e2e.op_ms.assign(done.size(), 0.0);
    std::size_t n = 0;
    for (std::size_t seg = 0; seg < kSegments; ++seg) {
      if (seg > 0) rebuild();
      e2e.timed_seconds +=
          run_window(opt.seconds / static_cast<double>(kSegments), true);
      for (std::size_t i = 0; i < done_n; ++i) {
        if (n == e2e.op_ms.size()) e2e.op_ms.push_back(0.0);
        e2e.op_ms[n++] = done[i].latency_ms;
      }
    }
    e2e.op_ms.resize(n);
  } else {
    cps::obs::registry().reset();
    cps::obs::trace().clear();
    alternate_blocks(opt.seconds, [&](bool on, double budget_s) {
      const core::PlannerService::Stats before = state->service->stats();
      set_tracing(spans, on);
      const double wall = run_window(budget_s, true);
      set_tracing(spans, false);
      const auto end = done.begin() + static_cast<std::ptrdiff_t>(done_n);
      if (on) {
        const core::PlannerService::Stats after = state->service->stats();
        traced_stats.completed += after.completed - before.completed;
        traced_stats.batches += after.batches - before.batches;
        traced.insert(traced.end(), done.begin(), end);
      } else {
        for (auto d = done.begin(); d != end; ++d) {
          untraced_ms.push_back(d->latency_ms);
        }
      }
      return wall;
    });
  }

  // Output checks: every job ok and each distinct job equal to its direct
  // call at the same pool size (repeats were compared on arrival).
  core::DeltaMetric oracle(kRegion, kDeltaResolution);
  double delta_sum = 0.0;
  double connected_sum = 0.0;
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    if (!expected[idx].have) {
      submit(idx);
      complete(false);
    }
    const Job& job = jobs[idx];
    const core::JobResult& first = expected[idx].result;
    const core::JobResult direct = direct_call(job, *state, sz, oracle);
    std::string why;
    if (!first.ok) {
      why = "job failed: " + first.error;
    } else if (!direct.ok) {
      why = direct.error;
    } else if (!same_bits(first.delta, direct.delta)) {
      why = "delta differs from the direct call";
    } else if (job.kind == Kind::kPlan &&
               !same_positions(first.deployment.positions,
                               direct.deployment.positions)) {
      why = "plan differs from the direct call";
    }
    if (!why.empty()) {
      report.fail("query-service: job " + std::to_string(idx) + ": " + why);
      report.failed += window_runs[idx];
    } else {
      report.failed += window_bad[idx];
    }
    report.attempted += window_runs[idx];
    delta_sum += first.delta;
    connected_sum +=
        largest_component_fraction(deployment_of(job, *state, first));
  }
  e2e.delta_mean = delta_sum / static_cast<double>(jobs.size());
  e2e.connected_fraction_mean =
      connected_sum / static_cast<double>(jobs.size());
  const core::PlannerService::Stats stats = state->service->stats();
  report.note(fmt("query-service: %zu-job cycle, %llu jobs served, %llu "
                  "batches, base-state hits %llu / misses %llu",
                  jobs.size(),
                  static_cast<unsigned long long>(stats.completed),
                  static_cast<unsigned long long>(stats.batches),
                  static_cast<unsigned long long>(stats.base_state_hits),
                  static_cast<unsigned long long>(stats.base_state_misses)));
  // Traced runs take their set-up samples here (untraced ones took them
  // between segments).  Nothing below touches the job state.
  while (e2e.setup_s.size() < (opt.smoke ? 2u : 9u)) rebuild();

  if (!opt.trace) {
    add_end_to_end(report, e2e);
    return report;
  }

  const double ops = static_cast<double>(traced.size());
  LayerValues v(ops);
  std::vector<double> wait_ms;
  std::vector<double> exec_ms[3];
  double exec_total = 0.0;
  double latency_total = 0.0;
  std::vector<double> traced_ms;
  for (const Done& d : traced) {
    wait_ms.push_back(d.stamped_ms - d.exec_ms);
    exec_ms[static_cast<int>(jobs[d.job].kind)].push_back(d.exec_ms);
    exec_total += d.exec_ms;
    latency_total += d.stamped_ms;
    traced_ms.push_back(d.latency_ms);
  }
  v.set("core.service.queue_wait_ms.p50", median(wait_ms));
  v.set("core.service.queue_wait_ms.tail", tail_of(wait_ms).value);
  v.set("core.service.exec_ms.whatif", median(exec_ms[0]));
  v.set("core.service.exec_ms.score", median(exec_ms[1]));
  v.set("core.service.exec_ms.plan", median(exec_ms[2]));
  const double base_hits = obs_counter("service.base_state.hits");
  v.put("core.service.base_state_hit_ratio", base_hits,
        base_hits + obs_counter("service.base_state.misses"));
  const double snap_hits = obs_counter("service.snapshot.hits");
  v.put("core.service.snapshot_hit_ratio", snap_hits,
        snap_hits + obs_counter("service.snapshot.misses"));
  v.put("core.service.batch_size_mean",
        static_cast<double>(traced_stats.completed),
        static_cast<double>(traced_stats.batches));
  const double fra_ms = obs_timer_ms("core.fra.plan_total");
  fill_fra(v, fra_ms);
  fill_geometry_delta(v);
  v.per_op("geometry.inserts_per_op",
           obs_counter("geometry.delaunay.inserts"));
  v.set("core.delta.reference_ms", median(reference_ms));
  v.set("trace.record_ms", median(record_ms));
  fill_common(v, median(traced_ms), median(untraced_ms));

  double client_ms = 0.0;
  for (const double ms : traced_ms) client_ms += ms;
  const std::vector<LayerRow> rows{
      {"core.service queue wait", (latency_total - exec_total) / ops, ""},
      {"core.service exec (self: job execution minus FRA)",
       (exec_total - fra_ms) / ops, ""},
      {"core.fra (plan_total inside Plan jobs)", fra_ms / ops, ""},
      {"core.delta", 0.0,
       "no timer; raster sweeps and what-if folds run inside core.service "
       "exec"},
      {"geometry", 0.0, "no timer; runs inside core.service exec"},
      {"parallel", 0.0,
       "no timer; batch fan-out runs inside core.service queue wait and "
       "exec"},
      {"benchmark client (observed latency minus service latency)",
       (client_ms - latency_total) / ops, ""},
  };
  add_per_layer(report, v, rows, client_ms / ops);
  if (!opt.trace_out.empty() && !spans.write_chrome_trace(opt.trace_out)) {
    report.note("cannot write " + opt.trace_out);
  }
  return report;
}

}  // namespace perfbench

// osd-plan: the Figs. 5-7 pipeline.  One op is FraPlanner::plan_detailed
// with foresight and track_delta on a GreenOrbs FieldSlice; k is drawn
// from {25, 50, 100, 150, 200} and the instant from 09:00-11:00 (Rc = 10 m,
// 100 x 100 lattice, pool size 1, one client).
#include <algorithm>
#include <cmath>
#include <memory>

#include "core/delta.hpp"
#include "core/fra.hpp"
#include "field/field.hpp"
#include "graph/geometric_graph.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "trace/greenorbs.hpp"

namespace perfbench {
namespace {

namespace core = cps::core;

struct Input {
  std::size_t k = 0;
  double minute = 0.0;
};

/// A fixed cycle of inputs: every k the same number of times (so the
/// median op is always a mid-size plan), each k's instants stratified over
/// 09:00-11:00 (one per equal sub-interval), all drawn and ordered from the
/// seed.  Stratifying keeps a seed from tilting the mix toward darker or
/// brighter hours.  The ks of one sub-interval get distinct whole minutes,
/// so every seed has the same number of distinct instants and set-up does
/// the same work.
std::vector<Input> make_inputs(const Options& opt) {
  const std::vector<std::size_t> ks =
      opt.smoke ? std::vector<std::size_t>{5, 10, 20}
                : std::vector<std::size_t>{25, 50, 100, 150, 200};
  const std::size_t per_k = opt.smoke ? 2 : 12;
  const std::size_t width = 120 / per_k;  // Whole minutes, >= ks.size().
  const double start = cps::trace::minutes(9, 0);
  InputRng rng(stream_seed(opt.seed, 1));
  std::vector<Input> inputs;
  for (std::size_t i = 0; i < per_k; ++i) {
    std::vector<std::size_t> offsets(width);
    for (std::size_t m = 0; m < width; ++m) offsets[m] = m;
    for (std::size_t j = 0; j < ks.size(); ++j) {
      std::swap(offsets[j], offsets[j + rng.below(width - j)]);
      inputs.push_back(
          Input{ks[j], start + static_cast<double>(width * i + offsets[j])});
    }
  }
  for (std::size_t i = inputs.size() - 1; i > 0; --i) {
    std::swap(inputs[i], inputs[rng.below(i + 1)]);
  }
  return inputs;
}

/// Everything set-up builds: the environment, the δ metric with a
/// reference lattice for every instant of the input cycle, and the planner.
struct State {
  State() : planner(make_config(&metric)) {}

  static core::FraConfig make_config(const core::DeltaMetric* metric) {
    core::FraConfig cfg;
    cfg.foresight = true;
    cfg.track_delta = metric;
    return cfg;
  }

  cps::trace::GreenOrbsField field{cps::trace::GreenOrbsConfig{}};
  core::DeltaMetric metric{kRegion, kDeltaResolution};
  core::FraPlanner planner;
};

std::unique_ptr<State> build_state(const std::vector<Input>& inputs,
                                   SpanRecorder& spans) {
  auto state = std::make_unique<State>();
  // The planner serves a known set of instants: the reference cache holds
  // them all, so no op recomputes a reference lattice.
  state->metric.set_reference_cache_capacity(inputs.size());
  for (const Input& in : inputs) {
    const ScopedSpan span(spans, "core.delta.reference", -1);
    state->metric.reference_lattice(
        cps::field::FieldSlice(state->field, in.minute));
  }
  return state;
}

/// Fresh set-ups timed per run; setup_s is their median.
constexpr std::size_t kSetupSamples = 24;

/// The first result seen for an input; every later op on it must match.
struct Expected {
  bool have = false;
  std::vector<cps::geo::Vec2> positions;
  double final_delta = 0.0;
};

}  // namespace

Report run_osd_plan(const Options& opt) {
  Report report;
  const std::vector<Input> inputs = make_inputs(opt);
  SpanRecorder spans;
  std::vector<Expected> expected(inputs.size());
  std::vector<std::size_t> window_ops(inputs.size(), 0);
  std::vector<std::size_t> mismatches(inputs.size(), 0);

  // Fresh set-up, timed; traced runs also keep its spans.
  EndToEnd e2e;
  std::unique_ptr<State> state;
  std::vector<double> reference_ms;
  const auto rebuild = [&] {
    state.reset();
    spans.set_active(opt.trace);
    const std::size_t first_span = spans.spans().size();
    const Clock::time_point t0 = Clock::now();
    state = build_state(inputs, spans);
    e2e.setup_s.push_back(ms_since(t0, Clock::now()) / 1000.0);
    spans.set_active(false);
    double ref = 0.0;
    for (std::size_t i = first_span; i < spans.spans().size(); ++i) {
      const Span& s = spans.spans()[i];
      ref += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
    reference_ms.push_back(ref);
  };
  rebuild();

  std::int64_t op_id = 0;
  // Runs input `idx`; returns its latency in ms.  The result comparison
  // happens after the clock stops.
  const auto run_op = [&](std::size_t idx, bool in_window) {
    const Input& in = inputs[idx];
    core::FraResult result;
    const Clock::time_point t0 = Clock::now();
    {
      const ScopedSpan op(spans, "op", op_id);
      const cps::field::FieldSlice slice(state->field, in.minute);
      const ScopedSpan plan(spans, "core.fra.plan", op_id);
      result = state->planner.plan_detailed(
          slice, core::PlanRequest{kRegion, in.k, kRc});
    }
    const double ms = ms_since(t0, Clock::now());
    ++op_id;
    Expected& ex = expected[idx];
    const bool match =
        !ex.have ||
        (same_positions(ex.positions, result.deployment.positions) &&
         same_bits(ex.final_delta, result.final_delta));
    if (!ex.have) {
      ex.have = true;
      ex.positions = std::move(result.deployment.positions);
      ex.final_delta = result.final_delta;
    }
    if (!match) {
      report.fail("osd-plan: input " + std::to_string(idx) +
                  " gave a different plan on a repeat");
    }
    if (in_window) {
      ++window_ops[idx];
      if (!match) ++mismatches[idx];
    }
    return ms;
  };

  // Warm-up, then the timed window (or the traced alternation); ops
  // cycle through the inputs.
  std::size_t cursor = 0;
  const auto next_op = [&](bool in_window) {
    const double ms = run_op(cursor, in_window);
    cursor = (cursor + 1) % inputs.size();
    return ms;
  };
  for (double warm = 0.0; warm < 50.0 * opt.seconds;) warm += next_op(false);
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  if (!opt.trace) {
    // Fresh set-ups between ops at even steps of op time, outside the op
    // clock, so set-up is sampled on the same host as the ops.  A rebuilt
    // state plans exactly like the one it replaces.
    const double setup_every_ms =
        1000.0 * opt.seconds / static_cast<double>(kSetupSamples);
    double next_setup_ms = 0.5 * setup_every_ms;
    double timed_ms = 0.0;
    while (timed_ms < 1000.0 * opt.seconds) {
      if (timed_ms >= next_setup_ms) {
        rebuild();
        next_setup_ms += setup_every_ms;
      }
      const double ms = next_op(true);
      e2e.op_ms.push_back(ms);
      timed_ms += ms;
    }
    e2e.timed_seconds = timed_ms / 1000.0;
  } else {
    cps::obs::registry().reset();
    cps::obs::trace().clear();
    alternate_blocks(opt.seconds, [&](bool traced, double budget_s) {
      set_tracing(spans, traced);
      double spent = 0.0;
      while (spent < 1000.0 * budget_s) {
        const double ms = next_op(true);
        (traced ? traced_ms : untraced_ms).push_back(ms);
        spent += ms;
      }
      set_tracing(spans, false);
      return spent / 1000.0;
    });
  }

  // Traced runs take their set-up samples here (untraced ones took them
  // in the window).
  while (e2e.setup_s.size() < (opt.smoke ? 3u : kSetupSamples)) rebuild();

  // Output checks, outside every timed window.
  core::DeltaMetric oracle(kRegion, kDeltaResolution);
  double delta_sum = 0.0;
  double connected_sum = 0.0;
  for (std::size_t idx = 0; idx < inputs.size(); ++idx) {
    if (!expected[idx].have) run_op(idx, false);
    const Input& in = inputs[idx];
    const Expected& ex = expected[idx];
    const cps::field::FieldSlice slice(state->field, in.minute);
    std::string why;
    if (ex.positions.size() > in.k) why = "more nodes than k";
    for (const auto& p : ex.positions) {
      if (!kRegion.contains(p.x, p.y)) why = "node outside the region";
    }
    if (!cps::graph::GeometricGraph(ex.positions, kRc).is_connected()) {
      why = "plan not connected at Rc";
    }
    const double direct = oracle.delta_of_deployment(
        slice, ex.positions, core::CornerPolicy::kFieldValue);
    if (!same_bits(direct, ex.final_delta)) {
      why = "final_delta differs from delta_of_deployment";
    }
    if (!std::isfinite(ex.final_delta)) why = "delta not finite";
    if (!why.empty()) {
      report.fail("osd-plan: input " + std::to_string(idx) + " (k=" +
                  std::to_string(in.k) + "): " + why);
      report.failed += window_ops[idx];
    } else {
      report.failed += mismatches[idx];
    }
    report.attempted += window_ops[idx];
    delta_sum += ex.final_delta;
    connected_sum += largest_component_fraction(ex.positions);
  }
  e2e.delta_mean = delta_sum / static_cast<double>(inputs.size());
  e2e.connected_fraction_mean =
      connected_sum / static_cast<double>(inputs.size());
  report.note("osd-plan: " + std::to_string(inputs.size()) +
              " distinct inputs, each checked against a direct "
              "delta_of_deployment");

  if (!opt.trace) {
    add_end_to_end(report, e2e);
    return report;
  }

  // Per-layer numbers from the traced blocks.
  const double ops = static_cast<double>(traced_ms.size());
  LayerValues v(ops);
  const double plan_span = spans.total_ms("core.fra.plan");
  fill_fra(v, plan_span);
  fill_geometry_delta(v);
  v.per_op("geometry.inserts_per_op",
           obs_counter("geometry.delaunay.inserts"));
  v.set("core.delta.reference_ms", median(reference_ms));
  fill_common(v, median(traced_ms), median(untraced_ms));
  std::vector<LayerRow> rows = fra_rows(v);
  rows.push_back({"geometry", 0.0,
                  "no timer; Delaunay inserts and walks run inside "
                  "core.fra.refine_loop"});
  rows.push_back({"core.delta", 0.0,
                  "no timer; the incremental tracker runs inside "
                  "core.fra.plan and core.fra.refine_loop"});
  rows.push_back({"benchmark (op span minus plan span)",
                  (spans.total_ms("op") - plan_span) / ops, ""});
  add_per_layer(report, v, rows, spans.total_ms("op") / ops);
  if (!opt.trace_out.empty() && !spans.write_chrome_trace(opt.trace_out)) {
    report.note("cannot write " + opt.trace_out);
  }
  return report;
}

}  // namespace perfbench

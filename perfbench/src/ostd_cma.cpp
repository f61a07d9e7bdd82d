// ostd-cma: the Fig. 10 pipeline at n = 1000.  Nodes start on the grid in
// the 100 x 100 m^2 region (about 31 radio neighbours each), frames are
// recorded from 10:00, CMA runs the paper's LCM over the default
// Gilbert-Elliott link with seeded random deaths of about 10% of the nodes,
// and a CmaDeltaTracker at resolution 100 reports live δ.  One op is one
// slot: step() then the tracker's update().  Pool size 1; the CmaConfig
// defaults (sharding, delivery mode) are left alone.
//
// The run replays fixed-length episodes (10:00 -> 11:00); each episode
// starts from a fresh set-up, timed as setup_s samples.  Every episode
// of a run is the same deterministic trajectory, so δ per slot must repeat
// bit for bit.
#include <cmath>
#include <memory>
#include <string_view>

#include "core/cma.hpp"
#include "core/cma_delta.hpp"
#include "core/delta.hpp"
#include "core/planner.hpp"
#include "field/field.hpp"
#include "layers.hpp"
#include "net/fault.hpp"
#include "net/link_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "trace/greenorbs.hpp"

namespace perfbench {
namespace {

namespace core = cps::core;

struct Sizes {
  std::size_t nodes;
  std::size_t slots;        ///< Slots per episode.
  std::size_t check_every;  ///< Fresh-δ check stride in the first episode.
};

Sizes sizes(const Options& opt) {
  return opt.smoke ? Sizes{100, 8, 2} : Sizes{1000, 60, 6};
}

/// Fresh set-ups timed at each episode start (the last one runs the
/// episode); setup_s is the median over all of a run's.
constexpr std::size_t kRebuildsPerEpisode = 2;

/// Everything an episode's set-up builds.
struct State {
  State(const Sizes& sz, std::uint64_t seed, SpanRecorder& spans)
      : recorded(record(field, sz, spans)),
        sim(recorded, kRegion,
            core::GridPlanner::make_grid(kRegion, sz.nodes).positions,
            config(), kStart) {
    sim.set_link_model(std::make_unique<cps::net::GilbertElliottLink>(
        kRc, cps::net::GilbertElliottLink::Params{}, stream_seed(seed, 2)));
    sim.set_fault_schedule(cps::net::FaultSchedule::random_deaths(
        sz.nodes, 0.1, 1, sz.slots - 1, stream_seed(seed, 3)));
    {
      const ScopedSpan span(spans, "core.delta.reference", -1);
      metric.reference_lattice(cps::field::FieldSlice(recorded, kStart));
    }
    tracker = std::make_unique<core::CmaDeltaTracker>(sim, metric);
  }

  static constexpr double kStart = cps::trace::minutes(10, 0);

  static cps::field::FrameSequenceField record(
      const cps::trace::GreenOrbsField& field, const Sizes& sz,
      SpanRecorder& spans) {
    const ScopedSpan span(spans, "trace.record", -1);
    return field.record(kStart, kStart + static_cast<double>(sz.slots), 1.0,
                        101, 101);
  }

  static core::CmaConfig config() {
    core::CmaConfig cfg;  // Rc 10, Rs 5, v 1 m/min, beta 2.
    cfg.lcm = core::LcmMode::kPaper;
    return cfg;
  }

  cps::trace::GreenOrbsField field{cps::trace::GreenOrbsConfig{}};
  cps::field::FrameSequenceField recorded;
  core::DeltaMetric metric{kRegion, kDeltaResolution};
  core::CmaSimulation sim;
  std::unique_ptr<core::CmaDeltaTracker> tracker;
};

}  // namespace

Report run_ostd_cma(const Options& opt) {
  Report report;
  const Sizes sz = sizes(opt);
  SpanRecorder spans;
  EndToEnd e2e;
  std::vector<double> record_ms;
  std::vector<double> reference_ms;

  std::unique_ptr<State> state;
  // Fresh set-up, timed; traced runs also keep its spans.
  const auto rebuild = [&] {
    state.reset();
    // Set-up spans only: obs stays disarmed so its counters hold per-slot
    // work alone.
    spans.set_active(opt.trace);
    const std::size_t first = spans.spans().size();
    const Clock::time_point t0 = Clock::now();
    state = std::make_unique<State>(sz, opt.seed, spans);
    e2e.setup_s.push_back(ms_since(t0, Clock::now()) / 1000.0);
    spans.set_active(false);
    for (std::size_t i = first; i < spans.spans().size(); ++i) {
      const Span& s = spans.spans()[i];
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      (std::string_view(s.name) == "trace.record" ? record_ms : reference_ms)
          .push_back(ms);
    }
  };
  // The first episode's per-slot δ is the reference every later episode
  // must reproduce; its connectivity feeds connected_fraction_mean.
  std::vector<double> first_delta;
  std::vector<double> first_connected;
  // Slots whose first-episode checks failed: later episodes repeat that
  // slot exactly, so each of their runs of it fails too.
  std::vector<char> first_bad(sz.slots, 0);
  core::DeltaMetric oracle(kRegion, kDeltaResolution);
  std::size_t episode = 0;
  std::size_t slot = sz.slots;  // Forces a fresh episode on the first op.
  std::int64_t op_id = 0;

  // One slot.  `traced` arms obs and the spans around the timed part
  // only, so the checks below stay out of the per-layer counters.
  const auto run_op = [&](bool in_window, bool traced) {
    if (slot == sz.slots) {
      for (std::size_t i = 0; i < kRebuildsPerEpisode; ++i) rebuild();
      slot = 0;
      ++episode;
    }
    double delta = 0.0;
    set_tracing(spans, traced);
    const Clock::time_point t0 = Clock::now();
    {
      const ScopedSpan op(spans, "op", op_id);
      {
        const ScopedSpan s(spans, "core.cma.step", op_id);
        state->sim.step();
      }
      const ScopedSpan s(spans, "core.delta.track", op_id);
      delta = state->tracker->update(state->sim);
    }
    const double ms = ms_since(t0, Clock::now());
    set_tracing(spans, false);
    ++op_id;

    // Checks, with the clock stopped.
    std::string why;
    if (!std::isfinite(delta) || delta < 0.0) why = "delta not finite or < 0";
    for (const auto& p : state->sim.positions()) {
      if (!kRegion.contains(p.x, p.y)) why = "node outside the region";
    }
    if (episode == 1) {
      first_delta.push_back(delta);
      first_connected.push_back(state->sim.largest_component_fraction());
      if ((slot + 1) % sz.check_every == 0 || slot + 1 == sz.slots) {
        const double fresh = oracle.delta(
            cps::field::FieldSlice(state->recorded, state->sim.time()),
            state->tracker->triangulation());
        if (!same_bits(fresh, delta)) {
          why = "tracked delta differs from a fresh DeltaMetric::delta";
        }
      }
      if (!why.empty()) first_bad[slot] = 1;
    } else if (!same_bits(first_delta[slot], delta)) {
      why = "episode did not repeat the first episode's delta";
    } else if (first_bad[slot] && why.empty()) {
      why = "repeats a slot that failed its check in the first episode";
    }
    if (!why.empty()) {
      report.fail("ostd-cma: episode " + std::to_string(episode) + " slot " +
                  std::to_string(slot) + ": " + why);
      if (in_window) ++report.failed;
    }
    if (in_window) ++report.attempted;
    ++slot;
    return ms;
  };

  for (double warm = 0.0; warm < 50.0 * opt.seconds;) {
    warm += run_op(false, false);
  }
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  if (!opt.trace) {
    // Set-up of later episodes happens inside run_op but outside its
    // clock, so the window sums op time only.
    double timed_ms = 0.0;
    while (timed_ms < 1000.0 * opt.seconds) {
      const double ms = run_op(true, false);
      e2e.op_ms.push_back(ms);
      timed_ms += ms;
    }
    e2e.timed_seconds = timed_ms / 1000.0;
  } else {
    cps::obs::registry().reset();
    cps::obs::trace().clear();
    alternate_blocks(opt.seconds, [&](bool traced, double budget_s) {
      double spent = 0.0;
      while (spent < 1000.0 * budget_s) {
        const double ms = run_op(true, traced);
        (traced ? traced_ms : untraced_ms).push_back(ms);
        spent += ms;
      }
      return spent / 1000.0;
    });
  }
  // Finish the first episode if the window ended inside it.
  while (episode == 1 && slot < sz.slots) run_op(false, false);

  double delta_sum = 0.0;
  double connected_sum = 0.0;
  for (std::size_t i = 0; i < first_delta.size(); ++i) {
    delta_sum += first_delta[i];
    connected_sum += first_connected[i];
  }
  e2e.delta_mean = delta_sum / static_cast<double>(first_delta.size());
  e2e.connected_fraction_mean =
      connected_sum / static_cast<double>(first_connected.size());
  report.note(fmt("ostd-cma: %zu nodes, %zu-slot episodes, %zu episodes "
                  "run, %zu nodes dead at the last slot run",
                  sz.nodes, sz.slots, episode,
                  sz.nodes - state->sim.alive_count()));
  // Every episode start took set-up samples; top up short runs.
  while (e2e.setup_s.size() < 5) rebuild();

  if (!opt.trace) {
    add_end_to_end(report, e2e);
    return report;
  }

  const double slots = static_cast<double>(traced_ms.size());
  LayerValues v(slots);
  const double step_span = spans.total_ms("core.cma.step");
  static constexpr const char* kPhases[] = {
      "core.cma.sense", "core.cma.beacon_round", "core.cma.forces",
      "core.cma.tell_round", "core.cma.lcm", "core.cma.move"};
  double phases = 0.0;
  for (const char* phase : kPhases) {
    const double ms = obs_timer_ms(phase);
    phases += ms;
    v.per_op(std::string(phase) + "_ms", ms);
  }
  v.per_op("core.cma.step_ms", step_span - phases);
  v.per_op("core.cma.chases_per_slot", obs_counter("core.cma.lcm_chases"));
  const double attempts = obs_counter("net.bus.transmit_attempts");
  const double deliveries = obs_counter("net.bus.deliveries");
  v.per_op("net.attempts_per_slot", attempts);
  v.per_op("net.deliveries_per_slot", deliveries);
  v.put("net.delivery_ratio", deliveries, attempts);
  v.per_op("net.link_loss_per_slot",
           obs_counter("net.bus.drop.link_loss_draw"));
  v.per_op("net.out_of_range_per_slot",
           obs_counter("net.bus.drop.out_of_range"));
  const double track_span = spans.total_ms("core.delta.track");
  v.per_op("core.delta.track_ms", track_span);
  v.per_op("core.delta.retargets_per_slot",
           obs_counter("core.delta.inc_retargets"));
  v.per_op("geometry.removes_per_slot",
           obs_counter("geometry.delaunay.removes"));
  fill_geometry_delta(v);
  v.set("core.delta.reference_ms", median(reference_ms));
  v.set("trace.record_ms", median(record_ms));
  fill_common(v, median(traced_ms), median(untraced_ms));

  std::vector<LayerRow> rows;
  rows.push_back({"core.cma.step (self, incl. shard preparation)",
                  (step_span - phases) / slots, ""});
  for (const char* phase : kPhases) {
    rows.push_back({phase, obs_timer_ms(phase) / slots, ""});
  }
  rows.push_back({"core.delta.track", track_span / slots, ""});
  rows.push_back({"net", 0.0,
                  "no timer; bus delivery and the link model run inside "
                  "core.cma.beacon_round and core.cma.tell_round"});
  rows.push_back({"geometry", 0.0,
                  "no timer; move and remove mutators run inside "
                  "core.delta.track"});
  rows.push_back({"benchmark (op span minus step and track spans)",
                  (spans.total_ms("op") - step_span - track_span) / slots,
                  ""});
  add_per_layer(report, v, rows, spans.total_ms("op") / slots);
  if (!opt.trace_out.empty() && !spans.write_chrome_trace(opt.trace_out)) {
    report.note("cannot write " + opt.trace_out);
  }
  return report;
}

}  // namespace perfbench

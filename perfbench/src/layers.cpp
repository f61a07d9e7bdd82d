#include "layers.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics{
      {"core.fra.plan_ms", "ms"},
      {"core.fra.sense_lattice_ms", "ms"},
      {"core.fra.initial_bucketing_ms", "ms"},
      {"core.fra.refine_loop_ms", "ms"},
      {"core.fra.relay_ms", "ms"},
      {"core.fra.iterations_per_op", "count"},
      {"core.fra.relays_per_op", "count"},
      {"core.fra.scans_per_iteration", "count"},
      {"core.fra.rebucketed_per_iteration", "count"},
      {"geometry.walk_steps_per_locate", "count"},
      {"geometry.incircle_per_insert", "count"},
      {"geometry.inserts_per_op", "count"},
      {"geometry.removes_per_slot", "count"},
      {"core.delta.track_ms", "ms"},
      {"core.delta.points_per_event", "count"},
      {"core.delta.retargets_per_slot", "count"},
      {"core.delta.fast_assign_ratio", "ratio"},
      {"core.delta.ref_cache_hit_ratio", "ratio"},
      {"core.delta.reference_ms", "ms"},
      {"core.cma.step_ms", "ms"},
      {"core.cma.sense_ms", "ms"},
      {"core.cma.beacon_round_ms", "ms"},
      {"core.cma.forces_ms", "ms"},
      {"core.cma.tell_round_ms", "ms"},
      {"core.cma.lcm_ms", "ms"},
      {"core.cma.move_ms", "ms"},
      {"core.cma.chases_per_slot", "count"},
      {"net.attempts_per_slot", "count"},
      {"net.deliveries_per_slot", "count"},
      {"net.delivery_ratio", "ratio"},
      {"net.link_loss_per_slot", "count"},
      {"net.out_of_range_per_slot", "count"},
      {"core.service.queue_wait_ms.p50", "ms"},
      {"core.service.queue_wait_ms.tail", "ms"},
      {"core.service.exec_ms.whatif", "ms"},
      {"core.service.exec_ms.score", "ms"},
      {"core.service.exec_ms.plan", "ms"},
      {"core.service.base_state_hit_ratio", "ratio"},
      {"core.service.snapshot_hit_ratio", "ratio"},
      {"core.service.batch_size_mean", "count"},
      {"parallel.regions_per_op", "count"},
      {"parallel.chunks_per_region", "count"},
      {"trace.record_ms", "ms"},
      {"obs.overhead_ratio", "ratio"},
      {"machine.calib_ms", "ms"},
  };
  return kMetrics;
}

void fill_fra(LayerValues& v, double plan_ms_total) {
  const double sense = obs_timer_ms("core.fra.sense_lattice");
  const double curvature = obs_timer_ms("core.fra.curvature_pass");
  const double bucketing = obs_timer_ms("core.fra.initial_bucketing");
  const double refine = obs_timer_ms("core.fra.refine_loop");
  const double relay = obs_timer_ms("graph.relay.plan_relays");
  // The relay planner runs inside the refine loop, the phases inside the
  // plan call: self time is each span minus what nests in it.
  v.per_op("core.fra.plan_ms",
           plan_ms_total - sense - curvature - bucketing - refine);
  v.per_op("core.fra.sense_lattice_ms", sense);
  v.per_op("core.fra.initial_bucketing_ms", bucketing);
  v.per_op("core.fra.refine_loop_ms", refine - relay);
  v.per_op("core.fra.relay_ms", relay);
  const double iterations = obs_counter("core.fra.iterations");
  v.per_op("core.fra.iterations_per_op", iterations);
  v.per_op("core.fra.relays_per_op", obs_counter("core.fra.relays_inserted"));
  v.put("core.fra.scans_per_iteration",
        obs_counter("core.fra.candidates_scanned"), iterations);
  v.put("core.fra.rebucketed_per_iteration",
        obs_counter("core.fra.candidates_rebucketed"), iterations);
}

void fill_geometry_delta(LayerValues& v) {
  v.put("geometry.walk_steps_per_locate",
        obs_counter("geometry.delaunay.walk_steps"),
        obs_counter("geometry.delaunay.locates"));
  v.put("geometry.incircle_per_insert",
        obs_counter("geometry.delaunay.incircle_calls"),
        obs_counter("geometry.delaunay.inserts"));
  v.put("core.delta.points_per_event", obs_counter("core.delta.inc_points"),
        obs_counter("core.delta.inc_events"));
  const double fast = obs_counter("core.delta.raster_fast_assigns");
  v.put("core.delta.fast_assign_ratio", fast,
        fast + obs_counter("core.delta.raster_fallback_locates"));
  const double hits = obs_counter("core.delta.ref_cache_hits");
  v.put("core.delta.ref_cache_hit_ratio", hits,
        hits + obs_counter("core.delta.ref_cache_misses"));
}

void fill_common(LayerValues& v, double traced_p50_ms,
                 double untraced_p50_ms) {
  const double regions = obs_counter("parallel.pool.regions");
  v.per_op("parallel.regions_per_op", regions);
  v.put("parallel.chunks_per_region", obs_counter("parallel.pool.chunks"),
        regions);
  v.put("obs.overhead_ratio", traced_p50_ms, untraced_p50_ms);
}

std::vector<LayerRow> fra_rows(const LayerValues& v) {
  std::vector<LayerRow> rows;
  for (const char* name :
       {"core.fra.plan_ms", "core.fra.sense_lattice_ms",
        "core.fra.initial_bucketing_ms", "core.fra.refine_loop_ms",
        "core.fra.relay_ms"}) {
    const auto it = v.values.find(name);
    rows.push_back({name, it == v.values.end() ? 0.0 : it->second, ""});
  }
  return rows;
}

void add_per_layer(Report& report, const LayerValues& v,
                   const std::vector<LayerRow>& rows, double op_wall_ms) {
  std::string idle;
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = v.values.find(name);
    report.add(name, it == v.values.end() ? 0.0 : it->second, unit);
    if (it == v.values.end() && name != "machine.calib_ms") {
      idle += " " + name;
    }
  }
  report.note(fmt("traced ops: %.0f, op wall time %.4f ms per op", v.ops,
                  op_wall_ms));
  report.note("layer self time per op (share of op wall time):");
  double covered = 0.0;
  for (const LayerRow& row : rows) {
    if (!row.unmeasured.empty()) {
      report.note("  " + row.layer + ": unmeasured (" + row.unmeasured + ")");
      continue;
    }
    covered += row.self_ms_per_op;
    report.note("  " + row.layer +
                fmt(": %.4f ms (%.1f%%)", row.self_ms_per_op,
                    100.0 * ratio(row.self_ms_per_op, op_wall_ms)));
  }
  report.note(fmt("  timed rows cover %.1f%% of op wall time",
                  100.0 * ratio(covered, op_wall_ms)));
  if (!idle.empty()) {
    report.note("no work recorded in the traced blocks (reported as 0):" +
                idle);
  }
}

}  // namespace perfbench

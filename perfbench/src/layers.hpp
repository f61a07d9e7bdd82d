// Per-layer numbers of the traced run: the metric list BENCHMARK.json
// names, the readers that turn obs counters and CPS_TIMER totals into
// per-op values, and the coverage table.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Every per-layer metric BENCHMARK.json lists, in order, with its unit.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Per-layer values gathered over the traced blocks' `ops` ops.
struct LayerValues {
  explicit LayerValues(double ops) : ops(ops) {}

  /// Records num / den when the denominator's work happened.
  void put(const std::string& name, double num, double den) {
    if (den != 0.0) values[name] = num / den;
  }
  /// Records num per op when the layer did such work.
  void per_op(const std::string& name, double num) {
    if (num != 0.0) values[name] = num / ops;
  }
  /// Records a value measured directly (medians, ratios of medians).
  void set(const std::string& name, double value) {
    if (value != 0.0) values[name] = value;
  }

  double ops;
  std::map<std::string, double> values;
};

/// core.fra.*: `plan_ms_total` is the time spent inside plan calls (the
/// benchmark's span around plan_detailed, or the library's plan_total
/// timer for plans run inside the service); self times subtract the
/// phase timers nested in it.
void fill_fra(LayerValues& v, double plan_ms_total);

/// geometry.* and core.delta.* ratios every workload can show.
void fill_geometry_delta(LayerValues& v);

/// parallel.*, obs.overhead_ratio.
void fill_common(LayerValues& v, double traced_p50_ms,
                 double untraced_p50_ms);

/// One row of the coverage table: a layer's self time per op, or why the
/// benchmark cannot see it.
struct LayerRow {
  std::string layer;
  double self_ms_per_op = 0.0;
  std::string unmeasured;  ///< Non-empty: the reason it is not timed.
};

/// Coverage rows for the FRA phases recorded by fill_fra.
std::vector<LayerRow> fra_rows(const LayerValues& v);

/// Adds every per-layer metric to the report (0 for those this workload
/// recorded no work for) and prints the coverage table.
void add_per_layer(Report& report, const LayerValues& v,
                   const std::vector<LayerRow>& rows, double op_wall_ms);

}  // namespace perfbench

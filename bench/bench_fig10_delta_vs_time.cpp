// Fig. 10 — delta versus time for 100 mobile nodes running CMA.
//
// The paper's claims: delta decreases gradually from 10:00, the movement
// converges from ~10:30, and the converged CMA delta is only ~16% above
// FRA's (the price of purely local information).
//
// This harness reproduces the series for all three LCM variants (see
// core/cma.hpp): the paper's literal chase rule, the strict midpoint-disk
// invariant, and no maintenance at all — because a key reproduction
// finding (EXPERIMENTS.md) is that the paper's published curve is only
// reachable when the connectivity constraint is enforced loosely: the
// literal rule fragments the radio graph while delta drops, and the
// provably-safe rule keeps the graph connected but pins the taut lattice.
#include <cstdio>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/cma.hpp"
#include "core/fra.hpp"
#include "numerics/stats.hpp"
#include "viz/series.hpp"

int main(int argc, char** argv) {
  using namespace cps;
  bench::ObsSession obs_session("fig10_delta_vs_time");
  bench::configure_threads(argc, argv);
  bench::print_header("Fig. 10", "delta vs time, CMA 10:00 -> 10:45");

  const auto env = bench::canonical_field();
  const auto recorded = env.record(trace::minutes(10, 0),
                                   trace::minutes(10, 45), 5.0, 101, 101);
  const core::DeltaMetric metric = bench::canonical_metric();

  // FRA reference (the paper compares the converged CMA against it).
  core::FraConfig fra_cfg;
  core::FraPlanner fra(fra_cfg);
  const field::FieldSlice frame_1045(recorded, trace::minutes(10, 45));
  const double fra_delta = metric.delta_of_deployment(
      frame_1045,
      fra.plan(frame_1045, core::PlanRequest{bench::kRegion, 100, bench::kRc})
          .positions,
      core::CornerPolicy::kFieldValue);

  struct Variant {
    const char* name;
    core::LcmMode mode;
  };
  const std::vector<Variant> variants{
      {"paper-LCM", core::LcmMode::kPaper},
      {"strict-LCM", core::LcmMode::kStrict},
      {"no-LCM", core::LcmMode::kOff},
  };

  viz::Series time_col{"minute", {}};
  for (int t = 0; t <= 45; ++t) {
    time_col.values.push_back(static_cast<double>(t));
  }
  std::vector<viz::Series> columns{time_col};
  std::vector<viz::Series> conn_columns{time_col};

  for (const auto& variant : variants) {
    core::CmaConfig cfg;
    cfg.rc = bench::kRc * 1.0001;  // Keep the pitch-10 grid connected.
    cfg.lcm = variant.mode;
    core::CmaSimulation sim(
        recorded, bench::kRegion,
        core::GridPlanner::make_grid(bench::kRegion, 100).positions, cfg,
        trace::minutes(10, 0));
    viz::Series deltas{variant.name, {}};
    viz::Series connected{variant.name, {}};
    deltas.values.push_back(sim.current_delta(metric));
    connected.values.push_back(sim.largest_component_fraction());
    for (int t = 1; t <= 45; ++t) {
      sim.step();
      deltas.values.push_back(sim.current_delta(metric));
      connected.values.push_back(sim.largest_component_fraction());
    }
    columns.push_back(std::move(deltas));
    conn_columns.push_back(std::move(connected));
  }

  std::printf("delta(t), minutes after 10:00 (FRA reference = %.1f):\n%s\n",
              fra_delta, viz::format_table(columns, 1).c_str());
  std::printf("largest-component fraction (connectivity health):\n%s\n",
              viz::format_table(conn_columns, 2).c_str());

  for (std::size_t v = 1; v < columns.size(); ++v) {
    const auto& series = columns[v].values;
    const std::size_t settle = num::convergence_index(series, 0.08);
    std::printf("%-10s delta: start=%.1f end=%.1f (%.0f%% of start), "
                "settles ~minute %zu, end/FRA = %.2f; sparkline %s\n",
                columns[v].name.c_str(), series.front(), series.back(),
                100.0 * series.back() / series.front(), settle,
                series.back() / fra_delta,
                viz::sparkline(series).c_str());
  }
  std::printf("\npaper expectation: delta decreases gradually, converges "
              "~30 minutes in, settling near FRA + 16%%\n");
  return 0;
}

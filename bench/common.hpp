// Shared workload definitions for the figure-reproduction benches.
//
// Every bench harness reproduces one figure of the paper's evaluation
// (Section 6) against the same canonical setting:
//   * region A = 100 x 100 m^2,
//   * synthetic GreenOrbs-like light trace (see cps::trace and the
//     substitution table in DESIGN.md), frozen/replayed around 10:00,
//   * Rc = 10 m, Rs = 5 m, v = 1 m/min, beta = 2 (Section 6.1).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/delta.hpp"
#include "core/planner.hpp"
#include "field/field.hpp"
#include "numerics/quadrature.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/greenorbs.hpp"
#include "viz/ascii.hpp"

namespace cps::bench {

inline const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};
inline constexpr double kRc = 10.0;
inline constexpr double kRs = 5.0;
inline constexpr std::size_t kDeltaResolution = 100;  // sqrt(A) lattice.

/// The canonical synthetic trace (seeded with the paper's trace date).
inline trace::GreenOrbsConfig canonical_trace_config() {
  trace::GreenOrbsConfig cfg;  // Defaults documented in trace/greenorbs.hpp.
  return cfg;
}

inline trace::GreenOrbsField canonical_field() {
  return trace::GreenOrbsField(canonical_trace_config());
}

/// 10:00 AM — the instant of the paper's Fig. 1 reference surface.
inline double reference_time() { return trace::minutes(10, 0); }

inline core::DeltaMetric canonical_metric() {
  return core::DeltaMetric(kRegion, kDeltaResolution);
}

/// Output directory for CSV/PGM artefacts the figures can be re-plotted
/// from.  Created on demand; failures to create are reported, not fatal.
inline std::string output_dir() {
  const std::string dir = "bench_out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) std::printf("note: cannot create %s: %s\n", dir.c_str(),
                      ec.message().c_str());
  return dir;
}

/// Arms the obs layer for one bench run and writes its artefacts on exit:
///
///  * `<output_dir>/<name>_metrics.json` — the full metrics registry
///    (per-phase wall-time histograms from the CPS_TIMER scopes, plus the
///    FRA/CMA/geometry/net counters), always written.  The footer carries
///    the trace-truncation tally ("trace": {"events", "dropped"}) so a
///    capped trace is visibly incomplete.
///  * `<output_dir>/<name>_timeline.jsonl` — the slot-scoped telemetry
///    timeline (one delta sample per phase boundary), written when any
///    samples were recorded.
///  * the file named by env CPS_TRACE_OUT (Chrome trace JSON; open in
///    chrome://tracing or https://ui.perfetto.dev), only when the variable
///    is set.  CPS_TRACE_JSONL names an optional JSONL sidecar stream.
///
/// Construct it first thing in main() so every instrumented phase lands in
/// the sidecar.  Under CPS_OBS=OFF builds the sidecar still appears but
/// carries only whatever non-macro instrumentation ran (typically empty
/// sections) — the bench itself is then measurement-free by construction.
class ObsSession {
 public:
  explicit ObsSession(std::string name) : name_(std::move(name)) {
    obs::set_enabled(true);
    obs::registry().reset();
    obs::trace().clear();
    // Arming changes no arithmetic; in obs-off builds the sample macros
    // are compiled out, so the timeline stays empty.
    obs::timeline().clear();
    obs::timeline().set_armed(true);
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() { finish(); }

  /// Idempotent; called by the destructor.
  void finish() {
    if (finished_) return;
    finished_ = true;
    obs::timeline().set_armed(false);
    const std::uint64_t trace_dropped = obs::trace().dropped();
    if (trace_dropped > 0) {
      std::fprintf(stderr,
                   "warning: trace truncated — %llu events dropped past the "
                   "capacity cap; the trace sidecar is incomplete\n",
                   static_cast<unsigned long long>(trace_dropped));
    }
    const std::string metrics_path =
        output_dir() + "/" + name_ + "_metrics.json";
    std::ofstream metrics(metrics_path);
    if (metrics) {
      const std::string footer =
          "\"trace\": {\"events\": " +
          std::to_string(obs::trace().snapshot().size()) +
          ", \"dropped\": " + std::to_string(trace_dropped) + "}";
      obs::registry().write_json(metrics, footer);
      std::printf("metrics sidecar: %s\n", metrics_path.c_str());
    } else {
      std::printf("note: cannot write %s\n", metrics_path.c_str());
    }
    if (obs::timeline().sample_count() > 0) {
      const std::string timeline_path =
          output_dir() + "/" + name_ + "_timeline.jsonl";
      std::ofstream timeline(timeline_path);
      if (timeline) {
        obs::timeline().write_jsonl(timeline);
        std::printf("timeline sidecar: %s (%zu samples)\n",
                    timeline_path.c_str(), obs::timeline().sample_count());
      } else {
        std::printf("note: cannot write %s\n", timeline_path.c_str());
      }
    }
    write_trace_if_requested("CPS_TRACE_OUT", /*jsonl=*/false);
    write_trace_if_requested("CPS_TRACE_JSONL", /*jsonl=*/true);
  }

 private:
  void write_trace_if_requested(const char* env, bool jsonl) {
    const char* path = std::getenv(env);
    if (path == nullptr || *path == '\0') return;
    std::ofstream out(path);
    if (!out) {
      std::printf("note: cannot write %s\n", path);
      return;
    }
    if (jsonl) {
      obs::trace().write_jsonl(out);
    } else {
      obs::trace().write_chrome_json(out);
    }
    std::printf("trace (%s): %s\n", jsonl ? "jsonl" : "chrome://tracing",
                path);
  }

  std::string name_;
  bool finished_ = false;
};

/// Parses `--threads N` / `--threads=N` and arms the process-wide worker
/// pool (0 or absent = auto: env CPS_THREADS, else hardware concurrency).
/// Call it right after constructing ObsSession — the session's registry
/// reset would otherwise drop the pool-size gauge recorded here, and the
/// sidecar should always say how many workers produced its numbers.
inline void configure_threads(int argc, char** argv) {
  long threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = std::atol(argv[++i]);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atol(arg.c_str() + 10);
    }
  }
  par::set_thread_count(threads < 0 ? 0
                                    : static_cast<std::size_t>(threads));
  // The pool size describes the host, not the workload: keep it out of
  // the timeline so --threads 1 and --threads 4 stay byte-identical.
  obs::registry().exclude_from_timeline("parallel.pool.threads");
  CPS_GAUGE("parallel.pool.threads", par::thread_count());
  std::printf("threads: %zu\n", par::thread_count());
}

inline void print_header(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("==============================================================\n");
}

/// Renders a field with node overlay at the standard bench size.
inline std::string render(const field::Field& f,
                          std::span<const geo::Vec2> nodes = {}) {
  viz::AsciiOptions opt;
  opt.width = 60;
  opt.height = 24;
  return viz::render_field(f, kRegion, nodes, opt);
}

}  // namespace cps::bench

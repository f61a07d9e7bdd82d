// End-to-end benchmark driver.
//
//   cps_perfbench --workload osd-plan|ostd-cma|query-service --seed N
//                 --seconds S --trace 0|1 [--smoke] [--trace-out FILE]
//
// Prints human-readable notes, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  See
// perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: cps_perfbench --workload "
               "osd-plan|ostd-cma|query-service --seed N --seconds S "
               "--trace 0|1 [--smoke] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() != "0";
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--trace-out") {
        opt.trace_out = value();
      } else {
        usage("unknown argument");
      }
    } catch (const std::logic_error&) {
      usage("bad number");
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0) || opt.seconds > 600.0) {
    usage("--seconds must be in (0, 600]");
  }
  return opt;
}

double calibrate() {
  double runs[3];
  for (double& r : runs) r = perfbench::calibration_ms();
  return perfbench::median({runs[0], runs[1], runs[2]});
}

void print_json(const Report& report) {
  bool finite = true;
  std::string metrics;
  for (const auto& m : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    finite = finite && std::isfinite(m.value);
    metrics += perfbench::fmt("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              m.name.c_str(), value, m.unit.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct && finite ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Report (*run)(const Options&) = nullptr;
  std::size_t pool = 1;
  if (opt.workload == "osd-plan") {
    run = perfbench::run_osd_plan;
  } else if (opt.workload == "ostd-cma") {
    run = perfbench::run_ostd_cma;
  } else if (opt.workload == "query-service") {
    run = perfbench::run_query_service;
    pool = 2;
  } else {
    usage("unknown workload");
  }
  cps::par::set_thread_count(pool);
  cps::obs::set_enabled(false);

  const double calib_start = calibrate();
  Report report;
  try {
    report = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  // Join the pool's workers while the obs trace recorder is alive: a
  // worker that buffered timer events flushes them into the recorder when
  // it exits, and the process-wide pool is otherwise torn down after the
  // recorder during static destruction.  Resizing takes effect at the next
  // process_pool() call.
  cps::par::set_thread_count(1);
  cps::par::ThreadPool::process_pool();
  cps::obs::trace().clear();
  const double calib_end = calibrate();
  for (auto& m : report.metrics) {
    if (m.name == "machine.calib_ms") m.value = 0.5 * (calib_start + calib_end);
  }

  std::printf("workload %s, seed %llu, %.1f s, %s%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? "traced" : "untraced", opt.smoke ? ", smoke" : "");
  std::printf("machine.calib_ms: %.4f at start, %.4f at end\n", calib_start,
              calib_end);
  for (const auto& line : report.notes) std::printf("%s\n", line.c_str());
  for (const auto& m : report.metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& f : report.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  std::fflush(stderr);
  print_json(report);
  return 0;
}

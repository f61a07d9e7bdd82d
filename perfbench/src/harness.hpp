// Shared machinery of the end-to-end benchmark: options, clocks, the
// in-memory span recorder, latency statistics, the obs registry readers
// and the report the driver prints.
//
// The benchmark only calls the library's public API.  Timings come from
// spans it records around those calls; per-layer work comes from the obs
// counters and CPS_TIMER histograms the library already maintains.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "geometry/vec2.hpp"
#include "numerics/quadrature.hpp"

namespace perfbench {

inline const cps::num::Rect kRegion{0.0, 0.0, 100.0, 100.0};
inline constexpr double kRc = 10.0;
inline constexpr std::size_t kDeltaResolution = 100;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes: every workload finishes in about a second.
  bool smoke = false;
  /// Chrome trace path written by a traced run (empty = none).
  std::string trace_out;
};

// --- Clocks --------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// printf into a std::string.
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// A fixed loop that calls no repository code, in ms: the host-speed probe
/// behind machine.calib_ms.
double calibration_ms();

/// Peak resident set of this process, MiB (VmHWM).
double peak_rss_mib();

// --- Input generation ----------------------------------------------------

/// splitmix64: the benchmark's own generator, so inputs do not depend on
/// the library's RNG.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from the workload seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

// --- Spans ---------------------------------------------------------------

/// One benchmark span: a call into a layer, timed from outside.
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t op = -1;  ///< Op id (-1 for set-up spans).
};

/// In-memory span store (single writer).  Inactive recorders ignore every
/// call, so untraced windows pay one branch per span.
class SpanRecorder {
 public:
  void set_active(bool on) noexcept { active_ = on; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// inactive).
  int open(const char* name, std::int64_t op);
  void close(int id);
  /// Adds a finished top-level span with explicit bounds (service jobs).
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::int64_t op);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Sum of `name` durations, ms.
  double total_ms(const char* name) const;

  /// Writes the spans plus the obs timer events recorded meanwhile as a
  /// Chrome trace.  Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool active_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::int64_t op)
      : rec_(rec), id_(rec.open(name, op)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

// --- Statistics ----------------------------------------------------------

/// Bitwise equality: the output checks compare results bit for bit.
bool same_bits(double a, double b);
bool same_positions(const std::vector<cps::geo::Vec2>& a,
                    const std::vector<cps::geo::Vec2>& b);

double median(std::vector<double> v);
double median_sorted(const std::vector<double>& sorted);

/// The highest percentile, up to p99, with at least ten samples beyond it:
/// the sample with max(10, n / 100) samples above it.  Up to 1000 samples
/// that is the 11th largest; beyond, the p99, because deeper percentiles
/// of a long run are set by a handful of host stalls, not by the program
/// (measured: the 11th largest of ~30 000 service jobs spread 39% across
/// runs).  Falls back to the maximum below 11 samples.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};
Tail tail_of(std::vector<double> v);
Tail tail_sorted(const std::vector<double>& sorted);

// --- obs readers ---------------------------------------------------------

/// Current value of an obs counter (0 when never registered).
double obs_counter(const char* name);
/// Total time recorded by a CPS_TIMER, ms.
double obs_timer_ms(const char* name);
/// num / den, or 0 when den is 0 (the layer did no such work).
double ratio(double num, double den);

// --- Report --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to the driver.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> failures;  ///< First few check failures.
  std::vector<Metric> metrics;        ///< End-to-end or per-layer.
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  void fail(const std::string& why);
  void add(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes.push_back(line); }
};

/// The eight end-to-end metrics from one untraced window (sorts op_ms in
/// place rather than copying it).
struct EndToEnd {
  std::vector<double> op_ms;    ///< Per-op latency.
  double timed_seconds = 0.0;   ///< Denominator of ops_per_s.
  std::vector<double> setup_s;  ///< One per fresh rebuild.
  double delta_mean = 0.0;
  double connected_fraction_mean = 0.0;
};
void add_end_to_end(Report& report, EndToEnd& e2e);

/// Runs the traced protocol's alternation: blocks of up to 1 s, untraced
/// and traced in turn, until each kind has `seconds / 2`.
/// `run_block(traced, budget_s)` runs ops for about budget_s seconds and
/// returns the time it spent.
void alternate_blocks(double seconds,
                      const std::function<double(bool, double)>& run_block);

/// Arms or disarms obs recording and the span recorder together.
void set_tracing(SpanRecorder& spans, bool on);

Report run_osd_plan(const Options& opt);
Report run_ostd_cma(const Options& opt);
Report run_query_service(const Options& opt);

/// Largest connected component of the Rc disk graph, as a fraction.
double largest_component_fraction(const std::vector<cps::geo::Vec2>& pos);

}  // namespace perfbench

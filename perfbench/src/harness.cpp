#include "harness.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "graph/geometric_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

double calibration_ms() {
  // Integer mixing, a data-dependent table update and a square root per
  // step: a little of each resource the workloads use, none of the code.
  std::vector<std::uint32_t> table(1u << 16, 1u);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 0xffffu] += static_cast<std::uint32_t>(x >> 32);
    acc += std::sqrt(static_cast<double>(x >> 11));
  }
  const double ms = ms_since(t0, Clock::now());
  const std::uint64_t check =
      std::accumulate(table.begin(), table.end(), std::uint64_t{0});
  if (acc < 0.0 || check == 0) std::fprintf(stderr, "calibration sink\n");
  return ms;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

// --- Input generation ----------------------------------------------------

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

std::size_t InputRng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  InputRng rng(seed * 0x100000001b3ULL + stream);
  return rng.next();
}

// --- Spans ---------------------------------------------------------------

namespace {

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

int SpanRecorder::open(const char* name, std::int64_t op) {
  if (!active_) return -1;
  Span s;
  s.name = name;
  s.start_ns = to_ns(Clock::now());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op;
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void SpanRecorder::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = to_ns(Clock::now());
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanRecorder::add(const char* name, Clock::time_point start,
                       Clock::time_point end, std::int64_t op) {
  if (active_) spans_.push_back(Span{name, to_ns(start), to_ns(end), -1, op});
}

double SpanRecorder::total_ms(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) {
      total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  return total;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  // obs timer events carry obs::now_us() stamps; map them onto the
  // steady-clock nanoseconds the spans use.
  const std::int64_t offset_us =
      to_ns(Clock::now()) / 1000 - cps::obs::now_us();
  std::int64_t origin_us = spans_.empty() ? 0 : spans_.front().start_ns / 1000;
  for (const Span& s : spans_) {
    origin_us = std::min(origin_us, s.start_ns / 1000);
  }
  out << "{\"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    sep();
    out << "{\"name\": \"" << s.name << "\", \"cat\": \"perfbench\", "
        << "\"ph\": \"X\", \"pid\": 1, \"tid\": 0"
        << ", \"ts\": " << (static_cast<double>(s.start_ns) / 1000.0 -
                           static_cast<double>(origin_us))
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}}";
  }
  for (const cps::obs::TraceEvent& e : cps::obs::trace().snapshot()) {
    if (e.phase != 'X') continue;
    sep();
    out << "{\"name\": \"" << e.name << "\", \"cat\": \"obs\", "
        << "\"ph\": \"X\", \"pid\": 2, \"tid\": " << e.tid
        << ", \"ts\": " << (e.ts_us + offset_us - origin_us)
        << ", \"dur\": " << e.dur_us << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- Statistics ----------------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_positions(const std::vector<cps::geo::Vec2>& a,
                    const std::vector<cps::geo::Vec2>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].x, b[i].x) || !same_bits(a[i].y, b[i].y)) return false;
  }
  return true;
}

double median_sorted(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return median_sorted(v);
}

Tail tail_sorted(const std::vector<double>& v) {
  Tail t;
  if (v.empty()) return t;
  const std::size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    return t;
  }
  t.beyond = std::max<std::size_t>(10, n / 100);
  t.value = v[n - 1 - t.beyond];
  t.percentile = 100.0 * static_cast<double>(n - t.beyond) /
                 static_cast<double>(n);
  return t;
}

Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return tail_sorted(v);
}

// --- obs readers ---------------------------------------------------------

double obs_counter(const char* name) {
  return static_cast<double>(cps::obs::registry().counter(name).value());
}

double obs_timer_ms(const char* name) {
  return cps::obs::registry().duration_histogram(name).sum() / 1000.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- Report --------------------------------------------------------------

void Report::fail(const std::string& why) {
  correct = false;
  if (failures.size() < 8) failures.push_back(why);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

void add_end_to_end(Report& report, EndToEnd& e2e) {
  std::sort(e2e.op_ms.begin(), e2e.op_ms.end());
  const double n = static_cast<double>(e2e.op_ms.size());
  const Tail tail = tail_sorted(e2e.op_ms);
  const double ok =
      ratio(static_cast<double>(report.attempted - report.failed),
            static_cast<double>(report.attempted));
  report.add("ops_per_s", ratio(n, e2e.timed_seconds), "1/s");
  report.add("op_ms_p50", median_sorted(e2e.op_ms), "ms");
  report.add("op_ms_tail", tail.value, "ms");
  report.add("setup_s", median(e2e.setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mib(), "MiB");
  report.add("ok_fraction", ok, "ratio");
  report.add("delta_mean", e2e.delta_mean, "KLux.m2");
  report.add("connected_fraction_mean", e2e.connected_fraction_mean, "ratio");
  report.note(fmt("ops: %.0f in %.3f s timed", n, e2e.timed_seconds));
  report.note(fmt("op_ms_tail is p%.3f: %zu of %zu samples lie beyond it",
                  tail.percentile, tail.beyond,
                  e2e.op_ms.size()));
  std::string setups = fmt("setup_s over %zu fresh rebuilds:",
                           e2e.setup_s.size());
  for (double s : e2e.setup_s) setups += fmt(" %.4f", s);
  report.note(setups);
}

void alternate_blocks(double seconds,
                      const std::function<double(bool, double)>& run_block) {
  const double half = seconds / 2.0;
  const double block = std::min(1.0, std::max(half / 4.0, 0.05));
  double spent[2] = {0.0, 0.0};
  bool traced = false;
  while (spent[0] < half || spent[1] < half) {
    const int k = traced ? 1 : 0;
    if (spent[k] < half) {
      spent[k] += run_block(traced, std::min(block, half - spent[k]));
    }
    traced = !traced;
  }
}

void set_tracing(SpanRecorder& spans, bool on) {
  spans.set_active(on);
  cps::obs::set_enabled(on);
}

double largest_component_fraction(const std::vector<cps::geo::Vec2>& pos) {
  if (pos.empty()) return 0.0;
  const cps::graph::GeometricGraph g(pos, kRc);
  std::size_t best = 0;
  for (const auto& c : g.components()) best = std::max(best, c.size());
  return static_cast<double>(best) / static_cast<double>(pos.size());
}

}  // namespace perfbench

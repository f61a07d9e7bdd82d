#include "obs/trace.hpp"

#include <chrono>
#include <ostream>

#include "obs/metrics.hpp"

namespace cps::obs {
namespace {

std::uint32_t next_tid() noexcept {
  static std::atomic<std::uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Small dense thread id (0 = first thread to record), stable per thread.
std::uint32_t this_tid() noexcept {
  thread_local const std::uint32_t tid = next_tid();
  return tid;
}

constexpr std::size_t kThreadFlushThreshold = 4096;

void write_event_json(std::ostream& out, const TraceEvent& ev) {
  out << "{\"name\": \"" << (ev.name ? ev.name : "?")
      << "\", \"cat\": \"cps\", \"ph\": \"" << ev.phase
      << "\", \"ts\": " << ev.ts_us << ", \"pid\": 1, \"tid\": " << ev.tid;
  switch (ev.phase) {
    case 'X':
      out << ", \"dur\": " << ev.dur_us;
      break;
    case 'C':
      out << ", \"args\": {\"value\": " << ev.value << "}";
      break;
    case 'i':
      out << ", \"s\": \"t\"";  // Thread-scoped instant.
      break;
    default:
      break;
  }
  out << "}";
}

}  // namespace

std::int64_t now_us() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// Per-thread buffer, flushed into the recorder when its thread exits.
// The main thread's buffer is constructed on its first record *through
// the recorder instance*, so the recorder outlives it.  Pool workers exit
// while the process pool's static is destroyed; the pool constructs the
// recorder before itself (parallel/thread_pool.cpp), so the recorder
// outlives them too.
struct ThreadBuffer {
  std::vector<TraceEvent> events;
  ~ThreadBuffer() { TraceRecorder::instance().absorb(events); }

  static ThreadBuffer& current() {
    thread_local ThreadBuffer buffer;
    return buffer;
  }
};

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder r;
  return r;
}

void TraceRecorder::record(const TraceEvent& ev) noexcept {
  auto& buffer = ThreadBuffer::current().events;
  buffer.push_back(ev);
  if (buffer.size() >= kThreadFlushThreshold) absorb(buffer);
}

void TraceRecorder::complete(const char* name, std::int64_t ts_us,
                             std::int64_t dur_us) noexcept {
  if (!enabled()) return;
  record(TraceEvent{name, ts_us, dur_us, 0.0, this_tid(), 'X'});
}

void TraceRecorder::instant(const char* name) noexcept {
  if (!enabled()) return;
  record(TraceEvent{name, now_us(), 0, 0.0, this_tid(), 'i'});
}

void TraceRecorder::counter(const char* name, double value) noexcept {
  if (!enabled()) return;
  record(TraceEvent{name, now_us(), 0, value, this_tid(), 'C'});
}

void TraceRecorder::absorb(std::vector<TraceEvent>& buffer) {
  if (buffer.empty()) return;
  std::lock_guard lock(mutex_);
  const std::size_t room =
      events_.size() < capacity_ ? capacity_ - events_.size() : 0;
  const std::size_t take = buffer.size() < room ? buffer.size() : room;
  events_.insert(events_.end(), buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(take));
  dropped_.fetch_add(buffer.size() - take, std::memory_order_relaxed);
  buffer.clear();
}

void TraceRecorder::flush_current_thread() {
  absorb(ThreadBuffer::current().events);
}

std::vector<TraceEvent> TraceRecorder::snapshot() {
  flush_current_thread();
  std::lock_guard lock(mutex_);
  return events_;
}

void TraceRecorder::clear() {
  ThreadBuffer::current().events.clear();
  std::lock_guard lock(mutex_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

void TraceRecorder::set_capacity(std::size_t max_events) {
  std::lock_guard lock(mutex_);
  capacity_ = max_events;
}

void TraceRecorder::write_chrome_json(std::ostream& out) {
  flush_current_thread();
  std::lock_guard lock(mutex_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    write_event_json(out, events_[i]);
  }
  out << "\n]}\n";
}

void TraceRecorder::write_jsonl(std::ostream& out) {
  flush_current_thread();
  std::lock_guard lock(mutex_);
  for (const TraceEvent& ev : events_) {
    write_event_json(out, ev);
    out << "\n";
  }
}

}  // namespace cps::obs

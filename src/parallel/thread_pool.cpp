#include "parallel/thread_pool.hpp"

#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/obs.hpp"

namespace cps::par {
namespace {

// True while the current thread is executing a pool chunk; run() calls
// made from such a context (nested parallelism) execute inline instead of
// deadlocking on the single-region pool.
thread_local bool t_in_region = false;

std::size_t env_thread_count() noexcept {
  const char* e = std::getenv("CPS_THREADS");
  if (e == nullptr || *e == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(e, &end, 10);
  if (end == e || v == 0) return 0;
  return static_cast<std::size_t>(v);
}

}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   // Workers park here between regions.
  std::condition_variable done_cv;   // run() waits for region completion.
  std::vector<std::thread> workers;

  // Region state.  Written by run() under mu while no worker is draining
  // (run() returns only once `active` is back to 0, so a worker can never
  // observe the next region's fields mid-write).  One region at a time;
  // concurrent run() callers serialise on region_mu.
  std::mutex region_mu;
  std::uint64_t generation = 0;      // Guarded by mu.
  void (*fn)(void*, std::size_t) = nullptr;
  void* ctx = nullptr;
  std::size_t chunk_count = 0;
  std::atomic<std::size_t> next_chunk{0};
  std::size_t completed = 0;         // Guarded by mu.
  std::size_t active = 0;            // Workers inside drain(); guarded by mu.
  std::exception_ptr first_error;    // Guarded by mu.
  bool stop = false;                 // Guarded by mu.

  // Pulls chunks off the shared counter until the region is exhausted.
  // Works on a snapshot of the region taken under mu, so a worker that
  // overslept one region can never read fields the next region's setup is
  // writing.  Exceptions are recorded (first wins) and the drain continues
  // so `completed` still reaches the chunk count.
  void drain(void (*f)(void*, std::size_t), void* c, std::size_t count) {
    for (;;) {
      const std::size_t chunk =
          next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= count) break;
      t_in_region = true;
      try {
        f(c, chunk);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
      }
      t_in_region = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (++completed == count) done_cv.notify_all();
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      void (*f)(void*, std::size_t) = nullptr;
      void* c = nullptr;
      std::size_t count = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [&] { return stop || generation != seen; });
        if (stop) return;
        seen = generation;
        f = fn;
        c = ctx;
        count = chunk_count;
        if (count == 0) continue;  // Region already fully drained and closed.
        ++active;
      }
      drain(f, c, count);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (--active == 0) done_cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : impl_(new Impl), threads_(threads == 0 ? 1 : threads) {
  impl_->workers.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::run(std::size_t chunk_count, void (*fn)(void*, std::size_t),
                     void* ctx) {
  if (chunk_count == 0) return;
  if (threads_ == 1 || t_in_region) {
    // Serial pool or nested region: execute inline, in chunk order.
    for (std::size_t c = 0; c < chunk_count; ++c) fn(ctx, c);
    return;
  }
#if defined(CPS_OBS_ENABLED)
  // Scheduler metrics describe the host's worker count, not the workload:
  // a serial pool runs regions inline and counts nothing.  Keep them out
  // of the timeline or its output would differ across --threads values.
  static const bool timeline_excluded = [] {
    obs::registry().exclude_from_timeline("parallel.pool.regions");
    obs::registry().exclude_from_timeline("parallel.pool.chunks");
    obs::registry().exclude_from_timeline("parallel.pool.threads");
    return true;
  }();
  (void)timeline_excluded;
#endif
  CPS_COUNT("parallel.pool.regions", 1);
  CPS_COUNT("parallel.pool.chunks", chunk_count);
  std::lock_guard<std::mutex> region(impl_->region_mu);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->fn = fn;
    impl_->ctx = ctx;
    impl_->chunk_count = chunk_count;
    impl_->next_chunk.store(0, std::memory_order_relaxed);
    impl_->completed = 0;
    impl_->first_error = nullptr;
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();
  impl_->drain(fn, ctx, chunk_count);  // The caller is a worker too.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    // Wait for every chunk to finish AND every worker to leave the drain
    // loop, so the next region's setup cannot race a straggler's reads.
    impl_->done_cv.wait(lock, [&] {
      return impl_->completed == impl_->chunk_count && impl_->active == 0;
    });
    error = impl_->first_error;
    // Close the region: a worker that oversleeps the notify sees count 0
    // and goes straight back to waiting.
    impl_->fn = nullptr;
    impl_->ctx = nullptr;
    impl_->chunk_count = 0;
  }
  if (error) std::rethrow_exception(error);
}

namespace {

struct ProcessPool {
  std::mutex mu;
  std::unique_ptr<ThreadPool> pool;
  std::size_t override_count = 0;  // 0 = auto (env, else hardware).

  std::size_t resolved() {
    if (override_count != 0) return override_count;
    const std::size_t env = env_thread_count();
    return env != 0 ? env : hardware_threads();
  }

  static ProcessPool& instance() {
    // Workers flush their thread-local trace buffers into the recorder
    // when they exit, which happens when this static is destroyed.
    // Statics are destroyed in reverse order of construction, so
    // constructing the recorder first keeps it alive for those flushes.
    obs::TraceRecorder::instance();
    static ProcessPool p;
    return p;
  }
};

}  // namespace

ThreadPool& ThreadPool::process_pool() {
  ProcessPool& p = ProcessPool::instance();
  std::lock_guard<std::mutex> lock(p.mu);
  const std::size_t want = p.resolved();
  if (!p.pool || p.pool->thread_count() != want) {
    p.pool.reset();  // Join any old workers before spawning anew.
    p.pool = std::make_unique<ThreadPool>(want);
    // Host property, not workload: never in the timeline (see run()).
    obs::registry().exclude_from_timeline("parallel.pool.threads");
    CPS_GAUGE("parallel.pool.threads", want);
  }
  return *p.pool;
}

void set_thread_count(std::size_t n) {
  ProcessPool& p = ProcessPool::instance();
  std::lock_guard<std::mutex> lock(p.mu);
  p.override_count = n;
  // The pool itself is (re)built lazily by process_pool().
}

std::size_t thread_count() {
  ProcessPool& p = ProcessPool::instance();
  std::lock_guard<std::mutex> lock(p.mu);
  return p.resolved();
}

}  // namespace cps::par

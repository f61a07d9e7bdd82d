// Process-wide fixed thread pool with deterministic parallel loops.
//
// The parallel substrate the ROADMAP's scaling PRs stand on.  Design
// constraints, in priority order:
//
//  * Determinism.  Work is split into chunks whose layout depends only
//    on the problem size and the grain, never on the thread count, and
//    parallel_reduce combines per-chunk partials in ascending chunk order
//    on the calling thread.  At threads == 1 the same chunks run inline,
//    in ascending order.  The pool size only decides who runs each chunk,
//    so every loop and reduction returns the same bits at every thread
//    count, 1 included.
//  * No work stealing, no task graph: one blocking parallel region at a
//    time, chunks handed out through a single atomic counter.  The calling
//    thread participates, so `threads == n` means n workers total, not
//    n + 1.  Nested parallel regions run inline on the caller (no
//    deadlock, no oversubscription).
//  * Reuse.  Workers are spawned once per process (first use) and parked
//    on a condition variable between regions; a parallel region costs two
//    lock/notify handshakes, not thread churn.
//
// Sizing: `set_thread_count(n)` > env `CPS_THREADS` > hardware
// concurrency.  Call set_thread_count at startup (benches: --threads);
// resizing tears the old pool down and is NOT safe concurrently with
// in-flight parallel regions.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace cps::par {

/// max(1, std::thread::hardware_concurrency()).
std::size_t hardware_threads() noexcept;

/// Fixed-size blocking pool.  Most code should use the free functions
/// below (which share the process-wide instance); standalone instances
/// are for tests.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller is the remaining one).
  /// `threads` is clamped to >= 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return threads_; }

  /// Runs fn(ctx, chunk) for every chunk in [0, chunk_count), distributing
  /// chunks over the pool; the calling thread participates and the call
  /// blocks until every chunk completed.  The first exception thrown by a
  /// chunk is rethrown on the caller after the region drains.  Calls from
  /// inside a running chunk execute inline on the caller.
  void run(std::size_t chunk_count, void (*fn)(void*, std::size_t),
           void* ctx);

  template <typename F>
  void run(std::size_t chunk_count, F&& f) {
    run(
        chunk_count,
        [](void* ctx, std::size_t chunk) {
          (*static_cast<std::remove_reference_t<F>*>(ctx))(chunk);
        },
        const_cast<void*>(static_cast<const void*>(&f)));
  }

  /// The process-wide pool, created on first use with the configured size.
  static ThreadPool& process_pool();

 private:
  struct Impl;
  Impl* impl_;
  std::size_t threads_ = 1;
};

/// Overrides the process-wide pool size; 0 restores the default
/// (CPS_THREADS env, else hardware).  Recreates the pool if the size
/// changed.  Not safe concurrently with running parallel regions.
void set_thread_count(std::size_t n);

/// Resolved size the process-wide pool has (or would be created with).
std::size_t thread_count();

namespace detail {

/// Chunk grain used when callers pass 0.  Fixed (never derived from the
/// thread count) so chunk layout — and therefore reduction order — is a
/// function of the problem size alone.
inline constexpr std::size_t kDefaultGrain = 256;

inline std::size_t resolve_grain(std::size_t grain) noexcept {
  return grain == 0 ? kDefaultGrain : grain;
}

}  // namespace detail

/// Parallel loop over index ranges: fn(begin, end) per chunk.  Useful when
/// the body carries chunk-local state (e.g. a point-location hint).
template <typename Fn>
void parallel_for_chunks(std::size_t n, Fn&& fn, std::size_t grain = 0) {
  if (n == 0) return;
  const std::size_t g = detail::resolve_grain(grain);
  const std::size_t chunks = (n + g - 1) / g;
  ThreadPool::process_pool().run(chunks, [&](std::size_t c) {
    const std::size_t begin = c * g;
    fn(begin, begin + g < n ? begin + g : n);
  });
}

/// Parallel loop: fn(i) for i in [0, n).  `grain` indices per chunk
/// (default detail::kDefaultGrain).
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 0) {
  parallel_for_chunks(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      grain);
}

/// Ordered parallel reduction.  `map(begin, end)` folds one chunk
/// serially; partials are combined as combine(acc, partial) in ascending
/// chunk order on the calling thread — the same bits at every thread
/// count.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t n, T identity, Map&& map, Combine&& combine,
                  std::size_t grain = 0) {
  if (n == 0) return identity;
  const std::size_t g = detail::resolve_grain(grain);
  const std::size_t chunks = (n + g - 1) / g;
  std::vector<T> partial(chunks, identity);
  parallel_for_chunks(
      n,
      [&](std::size_t begin, std::size_t end) {
        partial[begin / g] = map(begin, end);
      },
      g);
  T acc = std::move(identity);
  for (std::size_t c = 0; c < chunks; ++c) {
    acc = combine(std::move(acc), std::move(partial[c]));
  }
  return acc;
}

}  // namespace cps::par

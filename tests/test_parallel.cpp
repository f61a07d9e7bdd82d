// Tests for the parallel substrate (parallel/*): thread-pool scheduling,
// the determinism contract of parallel_for / parallel_reduce, exception
// propagation, nested-region behaviour, the spatial hash against a brute
// force oracle, and obs counter correctness under concurrent updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "geometry/vec2.hpp"
#include "numerics/rng.hpp"
#include "obs/obs.hpp"
#include "parallel/spatial_hash.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::par {
namespace {

/// Pins the process pool to `n` workers for one test, restoring the
/// automatic sizing afterwards.
class ThreadScope {
 public:
  explicit ThreadScope(std::size_t n) { set_thread_count(n); }
  ~ThreadScope() { set_thread_count(0); }
};

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ThreadPool, SetThreadCountIsObserved) {
  ThreadScope scope(3);
  EXPECT_EQ(thread_count(), 3u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 3u, 5u}) {
    ThreadScope scope(threads);
    for (const std::size_t n : {0u, 1u, 7u, 1000u, 4097u}) {
      std::vector<int> hits(n, 0);
      parallel_for(n, [&](std::size_t i) { ++hits[i]; }, /*grain=*/64);
      EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                              [](int h) { return h == 1; }))
          << "threads=" << threads << " n=" << n;
    }
  }
}

TEST(ParallelForChunks, ChunksPartitionTheRangeInOrderWithinEachChunk) {
  ThreadScope scope(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunks(
      n,
      [&](std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        for (std::size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*grain=*/37);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForChunks, LayoutDependsOnlyOnSizeAndGrain) {
  // threads == 1 runs the same (n, grain) chunks as a multithreaded pool,
  // inline and in ascending order — no single whole-range chunk.
  const std::size_t n = 1000;
  std::vector<std::pair<std::size_t, std::size_t>> expected;
  for (std::size_t b = 0; b < n; b += 37) {
    expected.emplace_back(b, std::min(b + 37, n));
  }
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadScope scope(threads);
    std::vector<std::pair<std::size_t, std::size_t>> chunks(expected.size());
    std::atomic<std::size_t> calls{0};
    parallel_for_chunks(
        n,
        [&](std::size_t begin, std::size_t end) {
          chunks[begin / 37] = {begin, end};
          calls.fetch_add(1, std::memory_order_relaxed);
        },
        /*grain=*/37);
    EXPECT_EQ(calls.load(), expected.size()) << "threads=" << threads;
    EXPECT_EQ(chunks, expected) << "threads=" << threads;
  }
}

TEST(ParallelReduce, ExactIntegerSumAtEveryThreadCount) {
  const std::size_t n = 12345;
  const std::uint64_t expected = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    ThreadScope scope(threads);
    const std::uint64_t sum = parallel_reduce(
        n, std::uint64_t{0},
        [](std::size_t begin, std::size_t end) {
          std::uint64_t s = 0;
          for (std::size_t i = begin; i < end; ++i) s += i;
          return s;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(sum, expected) << "threads=" << threads;
  }
}

TEST(ParallelReduce, FloatSumBitsIdenticalAtEveryThreadCount) {
  // The chunk layout depends only on (n, grain) and partials combine in
  // ascending chunk order, so every thread count, 1 included, must
  // produce the same rounding sequence — identical bits, not just close
  // values.
  const std::size_t n = 10007;
  const auto run = [&] {
    return parallel_reduce(
        n, 0.0,
        [](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) {
            s += std::sin(static_cast<double>(i)) * 1e-3;
          }
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  set_thread_count(2);
  const double at2 = run();
  for (const std::size_t threads : {1u, 3u, 4u, 7u}) {
    set_thread_count(threads);
    const double at_n = run();
    EXPECT_EQ(std::memcmp(&at2, &at_n, sizeof(double)), 0)
        << "threads=" << threads << " " << at2 << " vs " << at_n;
  }
  set_thread_count(0);
}

TEST(ParallelReduce, FirstMaxArgmaxIdenticalAtEveryThreadCount) {
  // The FRA selection reduction: strict > within a chunk plus a
  // chunk-ordered "later wins only when strictly greater" combine keeps
  // the lowest-index maximum at every thread count, including 1.
  struct Best {
    double score;
    std::size_t idx;
  };
  const std::size_t n = 5000;
  std::vector<double> scores(n);
  num::Rng rng(99);
  for (auto& s : scores) s = rng.uniform(0.0, 1.0);
  scores[1234] = 2.0;
  scores[4321] = 2.0;  // Duplicate max: the first one must win.
  std::vector<std::size_t> winners;
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    ThreadScope scope(threads);
    const Best found = parallel_reduce(
        n, Best{-1.0, n},
        [&](std::size_t begin, std::size_t end) {
          Best local{-1.0, n};
          for (std::size_t i = begin; i < end; ++i) {
            if (scores[i] > local.score) local = Best{scores[i], i};
          }
          return local;
        },
        [](Best a, Best b) { return b.score > a.score ? b : a; });
    winners.push_back(found.idx);
  }
  for (const std::size_t w : winners) EXPECT_EQ(w, 1234u);
}

TEST(ParallelFor, ExceptionsPropagateToTheCaller) {
  ThreadScope scope(4);
  EXPECT_THROW(
      parallel_for(1000,
                   [](std::size_t i) {
                     if (i == 777) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must survive a throwing region and keep scheduling.
  std::atomic<std::size_t> count{0};
  parallel_for(100, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ParallelFor, NestedRegionsRunInlineWithoutDeadlock) {
  ThreadScope scope(4);
  std::vector<std::atomic<int>> hits(64 * 64);
  parallel_for(64, [&](std::size_t i) {
    parallel_for(64, [&](std::size_t j) {
      hits[i * 64 + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ObsCounters, ExactUnderConcurrentUpdates) {
  // The obs layer is advertised as safe inside parallel regions: n
  // concurrent add(1) calls must land exactly n.
  ThreadScope scope(4);
  obs::Counter& c = obs::counter("test.parallel.concurrent_counter");
  c.reset();
  const std::size_t n = 100000;
  parallel_for(n, [&](std::size_t) { c.add(1); }, /*grain=*/128);
  EXPECT_EQ(c.value(), n);

  obs::Histogram& h = obs::histogram("test.parallel.concurrent_hist");
  h.reset();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  parallel_for(n, [&](std::size_t) { CPS_HIST("test.parallel.concurrent_hist", 1.0); },
               /*grain=*/128);
  obs::set_enabled(was_enabled);
#if defined(CPS_OBS_ENABLED)
  EXPECT_EQ(h.count(), n);
#endif
}

// --- Spatial hash ---------------------------------------------------------

std::vector<geo::Vec2> random_points(std::size_t n, std::uint64_t seed) {
  num::Rng rng(seed);
  std::vector<geo::Vec2> pts(n);
  for (auto& p : pts) p = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 80.0)};
  return pts;
}

TEST(SpatialHash, RejectsNonPositiveCellSize) {
  const std::vector<geo::Vec2> pts = {{0.0, 0.0}};
  EXPECT_THROW(SpatialHash(pts, 0.0), std::invalid_argument);
  EXPECT_THROW(SpatialHash(pts, -1.0), std::invalid_argument);
}

TEST(SpatialHash, EmptyPointSetYieldsNothing) {
  const SpatialHash hash(std::vector<geo::Vec2>{}, 5.0);
  EXPECT_EQ(hash.cell_count(), 0u);
  std::size_t visits = 0;
  hash.for_each_candidate({50.0, 50.0}, 10.0,
                          [&](std::uint32_t) { ++visits; });
  EXPECT_EQ(visits, 0u);
}

TEST(SpatialHash, EveryPointLandsInExactlyOneCell) {
  const auto pts = random_points(500, 11);
  const SpatialHash hash(pts, 7.0);
  std::vector<int> seen(pts.size(), 0);
  for (std::size_t c = 0; c < hash.cell_count(); ++c) {
    std::uint32_t prev = 0;
    bool first = true;
    for (const std::uint32_t id : hash.cell_members(c)) {
      ++seen[id];
      if (!first) {
        EXPECT_LT(prev, id);  // Ascending inside each cell.
      }
      prev = id;
      first = false;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int s) { return s == 1; }));
}

TEST(SpatialHash, RadiusQueriesMatchBruteForce) {
  const auto pts = random_points(400, 23);
  for (const double cell : {2.0, 7.0, 25.0}) {
    const SpatialHash hash(pts, cell);
    num::Rng rng(5);
    for (int q = 0; q < 50; ++q) {
      const geo::Vec2 p{rng.uniform(-10.0, 110.0), rng.uniform(-10.0, 90.0)};
      const double radius = rng.uniform(0.5, 20.0);
      std::vector<std::uint32_t> found;
      hash.for_each_candidate(p, radius, [&](std::uint32_t id) {
        if (geo::distance(pts[id], p) <= radius) found.push_back(id);
      });
      std::sort(found.begin(), found.end());
      std::vector<std::uint32_t> expected;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (geo::distance(pts[i], p) <= radius) {
          expected.push_back(static_cast<std::uint32_t>(i));
        }
      }
      EXPECT_EQ(found, expected) << "cell=" << cell << " radius=" << radius;
    }
  }
}

TEST(SpatialHash, CellDistanceIsALowerBoundOnMemberDistances) {
  const auto pts = random_points(300, 31);
  const SpatialHash hash(pts, 6.0);
  num::Rng rng(17);
  for (int q = 0; q < 30; ++q) {
    const geo::Vec2 p{rng.uniform(-20.0, 120.0), rng.uniform(-20.0, 100.0)};
    for (std::size_t c = 0; c < hash.cell_count(); ++c) {
      const double bound = hash.cell_distance_sq(p, c);
      for (const std::uint32_t id : hash.cell_members(c)) {
        EXPECT_LE(bound, geo::distance_sq(pts[id], p) + 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace cps::par

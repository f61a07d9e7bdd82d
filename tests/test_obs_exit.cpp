// Exit-time lifetime of the trace recorder against the process pool.
//
// Pool workers flush their thread-local trace buffers into the recorder
// when they exit, and they exit while the process pool's static is
// destroyed.  This binary builds the pool *before* anything touches the
// recorder, records from a 4-worker region, and returns normally: if the
// recorder were destroyed before the pool, the workers' flushes would
// write into freed memory during static destruction (an AddressSanitizer
// heap-use-after-free under the asan preset).  It is its own binary so
// no other test can construct the recorder first.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <thread>

#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace cps {
namespace {

TEST(ObsExit, WorkerTraceBuffersFlushAfterPoolTeardown) {
  par::set_thread_count(4);  // Constructs the process pool first.
  obs::set_enabled(true);
  par::parallel_for_chunks(
      64,
      [](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          obs::trace().instant("test.obs_exit.chunk");
          // Slow chunks make sure the workers, not only the calling
          // thread, take some of them.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      /*grain=*/1);
  obs::trace().instant("test.obs_exit.main");
  // Flushes the main thread's buffer, so the recorder holds heap storage
  // that a late worker flush would write past once it is destroyed.
  EXPECT_FALSE(obs::trace().snapshot().empty());
  // Workers keep their buffers (fewer events than the flush threshold)
  // until they exit at process teardown.
}

}  // namespace
}  // namespace cps

// Unit tests for the work-stealing ThreadPool (src/sched): slot-indexed
// parallelFor correctness, nested submission, inline (jobs == 1) mode,
// exception propagation through waitAll/parallelFor, the ordered sweep
// collector (parallelForOrdered), and defaultJobs().

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "sched/thread_pool.hpp"

namespace ssm {
namespace {

TEST(ThreadPool, RejectsZeroJobs) {
  EXPECT_THROW(ThreadPool(0), ContractError);
  EXPECT_THROW(ThreadPool(-3), ContractError);
}

TEST(ThreadPool, ParallelForFillsEverySlotExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 257;  // deliberately not a multiple of jobs
  std::vector<int> hits(kN, 0);
  std::vector<std::size_t> value(kN, 0);
  pool.parallelFor(kN, [&](std::size_t i) {
    ++hits[i];
    value[i] = i * i;
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i], 1) << i;
    EXPECT_EQ(value[i], i * i) << i;
  }
}

TEST(ThreadPool, InlineModeRunsBodyOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobCount(), 1);
  std::vector<std::size_t> order;
  pool.parallelFor(5, [&](std::size_t i) { order.push_back(i); });
  // jobs == 1 is the serial path: in-order, on this thread, no queues.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ZeroIterationsIsANoOp) {
  ThreadPool pool(3);
  bool ran = false;
  pool.parallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::size_t> sums(kOuter, 0);
  pool.parallelFor(kOuter, [&](std::size_t o) {
    std::vector<std::size_t> inner(kInner, 0);
    // Workers joining an inner batch help execute pending tasks, so the
    // nested call cannot starve even with every lane busy in the outer loop.
    pool.parallelFor(kInner, [&](std::size_t i) { inner[i] = i; });
    sums[o] = std::accumulate(inner.begin(), inner.end(), std::size_t{0});
  });
  for (std::size_t o = 0; o < kOuter; ++o)
    EXPECT_EQ(sums[o], kInner * (kInner - 1) / 2);
}

TEST(ThreadPool, SubmitWaitAllRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.waitAll();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForRethrowsBodyException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.parallelFor(32,
                                [&](std::size_t i) {
                                  if (i == 7)
                                    throw std::runtime_error("boom");
                                  completed.fetch_add(1);
                                }),
               std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<int> after{0};
  pool.parallelFor(10, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPool, WaitAllRethrowsFirstSubmittedException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("submitted failure"); });
  EXPECT_THROW(pool.waitAll(), std::runtime_error);
  // The error is consumed: a second waitAll is clean.
  pool.waitAll();
}

TEST(ThreadPool, InlineModeStillPropagatesExceptions) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallelFor(3,
                                [](std::size_t i) {
                                  if (i == 1)
                                    throw std::runtime_error("inline boom");
                                }),
               std::runtime_error);
  pool.submit([] { throw std::runtime_error("inline submit"); });
  EXPECT_THROW(pool.waitAll(), std::runtime_error);
}

/// Busy work whose length falls with the index, so low indices finish
/// LAST on a multi-lane pool: the worst case for an ordered collector.
constexpr std::size_t kOrderedJobs = 8;
std::size_t unevenJob(std::size_t i) {
  volatile std::size_t sink = 0;
  for (std::size_t k = 0; k < (kOrderedJobs - i) * 200000; ++k)
    sink = sink + k;
  return i * 10;
}

TEST(ThreadPool, ParallelForOrderedEmitsInIndexOrder) {
  ThreadPool pool(4);
  std::vector<std::size_t> emitted;
  pool.parallelForOrdered(kOrderedJobs, unevenJob,
                          [&](std::size_t r) { emitted.push_back(r); });
  ASSERT_EQ(emitted.size(), kOrderedJobs);
  for (std::size_t i = 0; i < kOrderedJobs; ++i) EXPECT_EQ(emitted[i], i * 10);
}

TEST(ThreadPool, ParallelForOrderedReportsProgressOncePerJob) {
  ThreadPool pool(4);
  std::vector<std::size_t> dones;
  std::size_t emitted = 0;
  pool.parallelForOrdered(
      kOrderedJobs, unevenJob, [&](std::size_t) { ++emitted; },
      [&](std::size_t done, std::size_t total) {
        EXPECT_EQ(total, kOrderedJobs);
        dones.push_back(done);
      });
  EXPECT_EQ(emitted, kOrderedJobs);
  // Called under the collector lock, so the counts arrive as 1, 2, ..., n.
  ASSERT_EQ(dones.size(), kOrderedJobs);
  for (std::size_t k = 0; k < kOrderedJobs; ++k) EXPECT_EQ(dones[k], k + 1);
}

TEST(ThreadPool, ParallelForOrderedRethrowsJobException) {
  ThreadPool pool(4);
  std::vector<std::size_t> emitted;
  EXPECT_THROW(pool.parallelForOrdered(
                   kOrderedJobs,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("cell failed");
                     return unevenJob(i);
                   },
                   [&](std::size_t r) { emitted.push_back(r); }),
               std::runtime_error);
  // Only the prefix before the failed index is ever emitted.
  EXPECT_EQ(emitted, (std::vector<std::size_t>{0, 10, 20}));
  // The pool stays usable after a failed batch.
  std::size_t after = 0;
  pool.parallelForOrdered(
      kOrderedJobs, unevenJob, [&](std::size_t) { ++after; });
  EXPECT_EQ(after, kOrderedJobs);
}

TEST(ThreadPool, ParallelForOrderedInlineModeEmitsEachResultImmediately) {
  ThreadPool pool(1);
  std::vector<std::string> log;
  pool.parallelForOrdered(
      kOrderedJobs,
      [&](std::size_t i) {
        log.push_back("job" + std::to_string(i));
        return unevenJob(i);
      },
      [&](std::size_t r) { log.push_back("emit" + std::to_string(r / 10)); },
      [&](std::size_t done, std::size_t) {
        log.push_back("progress" + std::to_string(done));
      });
  // jobs == 1 is the serial path: each job is emitted and reported before
  // the next one starts.
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < kOrderedJobs; ++i) {
    expected.push_back("job" + std::to_string(i));
    expected.push_back("emit" + std::to_string(i));
    expected.push_back("progress" + std::to_string(i + 1));
  }
  EXPECT_EQ(log, expected);
}

TEST(ThreadPool, DefaultJobsHonoursEnvOverride) {
  ::setenv("SSMDVFS_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::defaultJobs(), 3);
  ::setenv("SSMDVFS_JOBS", "0", 1);  // invalid → fall back to hardware
  EXPECT_GE(ThreadPool::defaultJobs(), 1);
  ::unsetenv("SSMDVFS_JOBS");
  EXPECT_GE(ThreadPool::defaultJobs(), 1);
}

}  // namespace
}  // namespace ssm

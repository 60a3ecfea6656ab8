// Concurrency tests for the solve engine's worker pool. These are the ones
// the `tsan` preset is aimed at (cmake --preset tsan).
#include "hetpar/support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hetpar::support {
namespace {

TEST(ThreadPool, SpawnsRequestedWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
}

TEST(ThreadPool, ClampsNonPositiveCountToOne) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.size(), 1);
  ThreadPool negative(-4);
  EXPECT_EQ(negative.size(), 1);
}

TEST(ThreadPool, SubmitReturnsResultsThroughFutures) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  std::future<int> f =
      pool.submit([]() -> int { throw std::runtime_error("lane failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsPostedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i)
      pool.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, SurvivesThrowingPostedTask) {
  ThreadPool pool(1);
  pool.post([] { throw std::runtime_error("escapes into the worker"); });
  // The single worker must have swallowed the exception and stayed alive.
  EXPECT_EQ(pool.submit([] { return 41 + 1; }).get(), 42);
}

TEST(ThreadPool, ConcurrentPostersAreSerialized) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> posters;
    for (int p = 0; p < 4; ++p)
      posters.emplace_back([&pool, &ran] {
        for (int i = 0; i < 100; ++i)
          pool.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      });
    for (std::thread& t : posters) t.join();
  }
  EXPECT_EQ(ran.load(), 400);
}

TEST(ThreadPool, ResolveJobsPassesPositiveThrough) {
  EXPECT_EQ(ThreadPool::resolveJobs(1), 1);
  EXPECT_EQ(ThreadPool::resolveJobs(7), 7);
}

TEST(ThreadPool, ResolveJobsCapsLargeRequests) {
  EXPECT_EQ(ThreadPool::resolveJobs(ThreadPool::kMaxJobs), ThreadPool::kMaxJobs);
  EXPECT_EQ(ThreadPool::resolveJobs(100000), ThreadPool::kMaxJobs);
}

TEST(ThreadPool, ParseJobsAcceptsOnlyIntegersUpToTheCap) {
  EXPECT_EQ(ThreadPool::parseJobs("0"), 0);
  EXPECT_EQ(ThreadPool::parseJobs("4"), 4);
  EXPECT_EQ(ThreadPool::parseJobs("1024"), ThreadPool::kMaxJobs);
  for (const char* bad : {"", "x", "4x", " 4", "+4", "-1", "1.5", "1025", "100000",
                          "2147483648", "99999999999"})
    EXPECT_EQ(ThreadPool::parseJobs(bad), std::nullopt) << "'" << bad << "'";
}

TEST(ThreadPool, ResolveJobsMapsZeroToHardware) {
  EXPECT_GE(ThreadPool::resolveJobs(0), 1);
  EXPECT_GE(ThreadPool::resolveJobs(-1), 1);
}

}  // namespace
}  // namespace hetpar::support

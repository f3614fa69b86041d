#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace monohids::util {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains the queue before joining
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, SpawnsAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, OnWorkerThreadDistinguishesPoolThreads) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  std::atomic<bool> seen_on_worker{false};
  std::atomic<bool> done{false};
  {
    ThreadPool pool(1);
    pool.submit([&] {
      seen_on_worker = ThreadPool::on_worker_thread();
      done = true;
    });
  }
  ASSERT_TRUE(done.load());
  EXPECT_TRUE(seen_on_worker.load());
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 5000;
  std::vector<std::atomic<int>> visits(kCount);
  parallel_for(
      kCount, [&](std::size_t i) { visits[i].fetch_add(1, std::memory_order_relaxed); },
      4);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroCountIsANoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; }, 4);
}

TEST(ParallelFor, SingleThreadRunsOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  parallel_for(seen.size(), [&](std::size_t i) { seen[i] = std::this_thread::get_id(); },
               1);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, MoreThreadsThanWork) {
  std::atomic<int> counter{0};
  parallel_for(3, [&](std::size_t) { counter.fetch_add(1); }, 16);
  EXPECT_EQ(counter.load(), 3);
}

TEST(ParallelFor, FirstExceptionPropagatesToCaller) {
  EXPECT_THROW(
      parallel_for(
          1000,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
  // The shared pool must stay usable after an exception.
  std::atomic<int> counter{0};
  parallel_for(100, [&](std::size_t) { counter.fetch_add(1); }, 4);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, RangeClaimsVisitEveryIndexOnce) {
  // Guided claims shrink to single indices at the tail; every count, down
  // to fewer indices than shards, must still be covered exactly once.
  for (const std::size_t count : {1u, 2u, 3u, 5u, 64u, 350u, 1000u, 4097u}) {
    for (const unsigned threads : {2u, 3u, 4u}) {
      std::vector<std::atomic<int>> visits(count);
      const auto claims_before =
          obs::MetricsRegistry::global().snapshot().counter_value(
              "threadpool.parallel_for_claims_total");
      parallel_for(
          count, [&](std::size_t i) { visits[i].fetch_add(1, std::memory_order_relaxed); },
          threads);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "index " << i << " of " << count << ", " << threads
                                       << " threads";
      }
      if constexpr (obs::kEnabled) {
        const auto claims = obs::MetricsRegistry::global().snapshot().counter_value(
                                "threadpool.parallel_for_claims_total") -
                            claims_before;
        EXPECT_GE(claims, 1u);
        EXPECT_LE(claims, count);
        // A few dozen claims cover the sweep, not one per index (40 claims
        // for 350 indices on 4 shards when every claim sees the latest count).
        if (count >= 350) {
          EXPECT_LE(claims * 4, count) << count << " indices, " << threads << " threads";
        }
      }
    }
  }
}

TEST(ParallelFor, ExceptionAbandonsTheRestOfAClaimedRange) {
  // The first claim is always [0, count / (2 * shards)): a throw at index 0
  // abandons the rest of that range, so none of it runs, and no index runs
  // twice. When every index throws, each shard stops at its first index.
  constexpr std::size_t kCount = 1000;
  for (const unsigned threads : {2u, 3u, 4u}) {
    const std::size_t first_range = kCount / (2 * threads);
    std::vector<std::atomic<int>> visits(kCount);
    EXPECT_THROW(parallel_for(
                     kCount,
                     [&](std::size_t i) {
                       visits[i].fetch_add(1, std::memory_order_relaxed);
                       if (i == 0) throw std::runtime_error("first");
                     },
                     threads),
                 std::runtime_error);
    EXPECT_EQ(visits[0].load(), 1);
    for (std::size_t i = 1; i < first_range; ++i) {
      ASSERT_EQ(visits[i].load(), 0) << "index " << i << ", " << threads << " threads";
    }
    for (std::size_t i = first_range; i < kCount; ++i) {
      ASSERT_LE(visits[i].load(), 1) << "index " << i << ", " << threads << " threads";
    }

    std::atomic<int> thrown{0};
    std::vector<std::atomic<int>> every(kCount);
    EXPECT_THROW(parallel_for(
                     kCount,
                     [&](std::size_t i) {
                       every[i].fetch_add(1, std::memory_order_relaxed);
                       thrown.fetch_add(1, std::memory_order_relaxed);
                       throw std::runtime_error("every");
                     },
                     threads),
                 std::runtime_error);
    EXPECT_EQ(every[0].load(), 1);
    EXPECT_GE(thrown.load(), 1);
    EXPECT_LE(thrown.load(), static_cast<int>(threads));
    for (std::size_t i = 0; i < kCount; ++i) ASSERT_LE(every[i].load(), 1) << "index " << i;
  }
  // The shared pool stays usable.
  std::atomic<int> counter{0};
  parallel_for(100, [&](std::size_t) { counter.fetch_add(1); }, 4);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, NestedInvocationCompletesWithoutDeadlock) {
  // A parallel_for inside a pool worker degrades to a serial inner loop;
  // the outer sweep still covers every (i, j) pair.
  constexpr std::size_t kOuter = 8, kInner = 32;
  std::vector<std::atomic<int>> visits(kOuter * kInner);
  parallel_for(
      kOuter,
      [&](std::size_t i) {
        parallel_for(
            kInner,
            [&](std::size_t j) {
              visits[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
            },
            4);
      },
      4);
  for (std::size_t k = 0; k < visits.size(); ++k) {
    ASSERT_EQ(visits[k].load(), 1) << "pair " << k;
  }
}

TEST(ParallelMap, PreservesIndexOrder) {
  const auto squares = parallel_map(
      1000, [](std::size_t i) { return static_cast<int>(i * i); }, 4);
  ASSERT_EQ(squares.size(), 1000u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    ASSERT_EQ(squares[i], static_cast<int>(i * i));
  }
}

TEST(ParallelMap, SupportsMoveOnlyResults) {
  const auto boxed = parallel_map(
      100, [](std::size_t i) { return std::make_unique<int>(static_cast<int>(i)); }, 4);
  for (std::size_t i = 0; i < boxed.size(); ++i) {
    ASSERT_NE(boxed[i], nullptr);
    ASSERT_EQ(*boxed[i], static_cast<int>(i));
  }
}

TEST(ParallelMap, MatchesSerialResultForAnyThreadCount) {
  auto work = [](std::size_t i) {
    double acc = 0;
    for (std::size_t k = 1; k <= 50; ++k) acc += static_cast<double>(i * k) / (k + 1);
    return acc;
  };
  const auto serial = parallel_map(257, work, 1);
  for (unsigned threads : {2u, 3u, 8u}) {
    const auto parallel = parallel_map(257, work, threads);
    ASSERT_EQ(parallel, serial) << threads << " threads";
  }
}

}  // namespace
}  // namespace monohids::util

// Thread-safety unit tests for the parallel executor and the memoization
// primitive (support/parallel.hpp): ordered results under adversarial
// task durations, the serial path on the caller's thread, the
// lowest-index exception out of worker threads at any job count, and
// exactly-once get-or-compute.
#include "support/parallel.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace drbml::support {
namespace {

TEST(ResolveJobs, PositiveValuesPassThrough) {
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
}

TEST(ResolveJobs, AutoReadsEnvironment) {
  ASSERT_EQ(setenv("DRBML_JOBS", "5", /*overwrite=*/1), 0);
  EXPECT_EQ(resolve_jobs(0), 5);
  ASSERT_EQ(setenv("DRBML_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(resolve_jobs(0), 1);  // falls back to hardware concurrency
  ASSERT_EQ(unsetenv("DRBML_JOBS"), 0);
  EXPECT_GE(resolve_jobs(0), 1);
}

TEST(ParallelMap, OrderedUnderAdversarialDurations) {
  // Early items sleep longest, so completion order is roughly the
  // reverse of input order; results must still land in input order.
  std::vector<int> items(64);
  std::iota(items.begin(), items.end(), 0);
  const std::vector<int> out = parallel_map(8, items, [](const int& i) {
    std::this_thread::sleep_for(std::chrono::microseconds((64 - i) * 50));
    return i * i;
  });
  ASSERT_EQ(out.size(), items.size());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(ParallelMap, SerialPathMatchesParallel) {
  std::vector<int> items(40);
  std::iota(items.begin(), items.end(), 0);
  auto fn = [](const int& i) { return i * 3 + 1; };
  EXPECT_EQ(parallel_map(1, items, fn), parallel_map(8, items, fn));
}

TEST(ParallelMap, RunsEveryItemExactlyOnce) {
  std::vector<int> items(257);
  std::iota(items.begin(), items.end(), 0);
  std::atomic<int> calls{0};
  const std::vector<int> out = parallel_map(6, items, [&](const int& i) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return i;
  });
  EXPECT_EQ(calls.load(), 257);
  EXPECT_EQ(out, items);
}

TEST(ParallelMap, PropagatesWorkerExceptions) {
  std::vector<int> items(50);
  std::iota(items.begin(), items.end(), 0);
  EXPECT_THROW(
      parallel_map(4, items,
                   [](const int& i) -> int {
                     if (i == 37) throw std::runtime_error("task 37 failed");
                     return i;
                   }),
      std::runtime_error);
}

TEST(ParallelMap, RethrowsTheLowestFailingItemAtAnyJobCount) {
  // Item 3 throws last: items 17 and 37 throw while it sleeps. Every
  // item runs, and the error rethrown is still item 3's.
  std::vector<int> items(50);
  std::iota(items.begin(), items.end(), 0);
  for (const int jobs : {1, 2, 4, 8}) {
    try {
      parallel_map(jobs, items, [](const int& i) -> int {
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("item 3 failed");
        }
        if (i == 17 || i == 37) {
          throw std::runtime_error("item " + std::to_string(i) + " failed");
        }
        return i;
      });
      ADD_FAILURE() << "jobs " << jobs << ": nothing was rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 3 failed") << "jobs " << jobs;
    }
  }
}

TEST(ParallelMap, SerialPathRunsOnCallerInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> items(8);
  std::iota(items.begin(), items.end(), 0);
  std::vector<int> order;
  parallel_map(1, items, [&](const int& i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
    return i;
  });
  EXPECT_EQ(order, items);
}

TEST(OnceMap, ComputesEachKeyExactlyOnceUnderContention) {
  OnceMap<int> map;
  constexpr int kKeys = 100;
  constexpr int kThreads = 8;
  std::vector<std::atomic<int>> computes(kKeys);
  for (auto& c : computes) c.store(0);

  std::vector<std::thread> threads;
  std::vector<long> sums(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread asks for every key, in a thread-dependent order.
      for (int k = 0; k < kKeys; ++k) {
        const int key = (k * 13 + t * 31) % kKeys;
        sums[static_cast<std::size_t>(t)] +=
            map.get_or_compute(static_cast<std::uint64_t>(key), [&] {
              computes[static_cast<std::size_t>(key)].fetch_add(1);
              return key * 10;
            });
      }
    });
  }
  for (auto& th : threads) th.join();

  long expect = 0;
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(computes[static_cast<std::size_t>(k)].load(), 1)
        << "key " << k << " computed more than once";
    expect += k * 10;
  }
  for (long s : sums) EXPECT_EQ(s, expect);
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
}

TEST(OnceMap, ThrowingComputeRetriesAndReferencesAreStable) {
  OnceMap<std::string> map;
  int attempts = 0;
  EXPECT_THROW(map.get_or_compute(1, [&]() -> std::string {
    ++attempts;
    throw std::runtime_error("first attempt fails");
  }),
               std::runtime_error);
  const std::string& v = map.get_or_compute(1, [&] {
    ++attempts;
    return std::string("ok");
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(v, "ok");
  // Inserting many other keys must not invalidate the reference.
  for (std::uint64_t k = 2; k < 200; ++k) {
    (void)map.get_or_compute(k, [] { return std::string("x"); });
  }
  EXPECT_EQ(v, "ok");
}

}  // namespace
}  // namespace drbml::support

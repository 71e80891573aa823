// ProfileStore single-flight machinery under real contention: many host
// threads hammering get_or_run / get_or_run_many on overlapping key sets,
// including the failure path (waiters rethrowing the runner's exception_ptr
// and the key being released for retry). The assertions lock the dedup
// accounting (simulated == distinct keys, identical shared_ptr for every
// caller of one key); the test's main value is as a ThreadSanitizer target —
// it is the designated TSan regression surface for the store's Entry
// waiter/cv protocol and its relaxed stats counters (docs/static_analysis.md).
#include "core/profile_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "base/status.hpp"
#include "common/fixtures.hpp"
#include "core/scenario.hpp"

namespace pp::core {
namespace {

/// A tiny distinct-by-seed scenario (seed is part of the content key).
[[nodiscard]] Scenario tiny_scenario(std::uint64_t seed) {
  const Testbed tb = test::quick_testbed();
  return Scenario::of(tb, test::fast_run({FlowSpec::of(FlowType::kIp)}, seed));
}

/// A scenario that deterministically fails before doing any work: its
/// windows exceed its budget, so every attempt throws kBudgetExceeded from
/// the pre-run guard (no fault injector, no timing dependence).
[[nodiscard]] Scenario doomed_scenario(std::uint64_t seed) {
  Scenario s = tiny_scenario(seed);
  s.budget_ms = (s.warmup_ms + s.measure_ms) / 2.0;
  return s;
}

TEST(StoreStressTest, ManyThreadsOnFewKeysCoalesceToOneRunEach) {
  constexpr int kThreads = 16;
  constexpr int kKeys = 3;
  constexpr int kRoundsPerThread = 4;

  ProfileStore store;
  std::vector<Scenario> scenarios;
  for (int k = 0; k < kKeys; ++k) scenarios.push_back(tiny_scenario(100 + k));

  // results[k] collects every pointer handed out for key k, across all
  // threads and rounds; they must all be the *same* object.
  std::vector<std::vector<std::shared_ptr<const ScenarioResult>>> results(kKeys);
  std::mutex results_mu;
  std::atomic<int> ready{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Barrier-ish start so the first round genuinely races.
      ready.fetch_add(1, std::memory_order_relaxed);
      while (ready.load(std::memory_order_relaxed) < kThreads) std::this_thread::yield();
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const int k = (t + round) % kKeys;
        std::shared_ptr<const ScenarioResult> r = store.get_or_run(scenarios[k]);
        ASSERT_NE(r, nullptr);
        std::lock_guard<std::mutex> lk(results_mu);
        results[k].push_back(std::move(r));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int k = 0; k < kKeys; ++k) {
    ASSERT_FALSE(results[k].empty());
    for (const auto& r : results[k]) {
      EXPECT_EQ(r.get(), results[k].front().get())
          << "every caller of one key must share one result object";
    }
  }
  const ProfileStore::Stats st = store.stats();
  EXPECT_EQ(st.simulated, static_cast<std::uint64_t>(kKeys))
      << "single-flight must collapse " << kThreads * kRoundsPerThread
      << " calls into one run per key";
  EXPECT_EQ(st.simulated + st.memory_hits + st.disk_hits + st.coalesced,
            static_cast<std::uint64_t>(kThreads * kRoundsPerThread))
      << "every call is accounted exactly once";
}

TEST(StoreStressTest, GetOrRunManyDuplicateHeavyListAcrossThreadCounts) {
  // One duplicate-heavy list, fanned out at several host-thread counts from
  // the same warm store: the first fan-out simulates each distinct key once,
  // later ones are pure memory hits, and the result bits are identical
  // regardless of the thread count (the repeatability lock).
  constexpr int kDistinct = 4;
  std::vector<Scenario> list;
  for (int rep = 0; rep < 6; ++rep) {
    for (int k = 0; k < kDistinct; ++k) list.push_back(tiny_scenario(200 + k));
  }

  ProfileStore store;
  const std::vector<std::shared_ptr<const ScenarioResult>> first =
      store.get_or_run_many(list, 8);
  ASSERT_EQ(first.size(), list.size());
  EXPECT_EQ(store.stats().simulated, static_cast<std::uint64_t>(kDistinct));

  for (const int threads : {1, 3, 8}) {
    const auto again = store.get_or_run_many(list, threads);
    ASSERT_EQ(again.size(), list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      ASSERT_NE(again[i], nullptr);
      ASSERT_EQ(again[i]->size(), first[i]->size());
      for (std::size_t f = 0; f < first[i]->size(); ++f) {
        test::expect_metrics_equal((*first[i])[f], (*again[i])[f],
                                   "fan-out result must not depend on thread count");
      }
    }
  }
  EXPECT_EQ(store.stats().simulated, static_cast<std::uint64_t>(kDistinct))
      << "warm fan-outs must not re-simulate";
}

TEST(StoreStressTest, FailingRunWakesAllWaitersAndReleasesKeyForRetry) {
  constexpr int kThreads = 12;
  constexpr int kRounds = 3;

  ProfileStore store;
  const Scenario doomed = doomed_scenario(300);

  // Every round: all threads pile onto the same doomed key. Exactly one
  // becomes the runner, the rest park on the entry's cv; the runner's
  // exception must be rethrown by every waiter (no hang, no nullptr), and
  // the key must be released so the next round can race afresh.
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> failures{0};
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        ready.fetch_add(1, std::memory_order_relaxed);
        while (ready.load(std::memory_order_relaxed) < kThreads) std::this_thread::yield();
        try {
          (void)store.get_or_run(doomed);
          ADD_FAILURE() << "a doomed scenario must never produce a result";
        } catch (const StatusError& e) {
          EXPECT_EQ(e.status().kind, StatusKind::kBudgetExceeded) << e.what();
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(failures.load(), kThreads) << "round " << round;
  }

  // The failure released the key: the same content with an adequate budget
  // (budget is an execution guard, not key content) now runs and succeeds.
  Scenario retry = doomed;
  retry.budget_ms = 0;
  const auto r = store.get_or_run(retry);
  ASSERT_NE(r, nullptr);
  EXPECT_GE(store.stats().simulated, 1U);
}

TEST(StoreStressTest, WaiterIsNeverRefusedByAnotherCallersBudget) {
  // Budget is a per-caller guard, not key content: a caller without one
  // that coalesces onto an over-budget runner of the same key must still
  // get the result (doomed callers may fail, or hit the stored result).
  constexpr int kThreads = 8;
  for (int round = 0; round < 3; ++round) {
    ProfileStore store;
    const Scenario doomed = doomed_scenario(500 + static_cast<std::uint64_t>(round));
    Scenario healthy = doomed;
    healthy.budget_ms = 0;
    std::atomic<int> ready{0};
    std::atomic<int> healthy_ok{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1, std::memory_order_relaxed);
        while (ready.load(std::memory_order_relaxed) < kThreads) std::this_thread::yield();
        if (t % 2 == 0) {
          try {
            (void)store.get_or_run(doomed);
          } catch (const StatusError& e) {
            EXPECT_EQ(e.status().kind, StatusKind::kBudgetExceeded) << e.what();
          }
          return;
        }
        try {
          if (store.get_or_run(healthy) != nullptr) healthy_ok.fetch_add(1);
        } catch (const StatusError& e) {
          ADD_FAILURE() << "refused by another caller's budget: " << e.what();
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(healthy_ok.load(), kThreads / 2) << "round " << round;
    EXPECT_EQ(store.stats().simulated, 1U) << "round " << round;
  }
}

TEST(StoreStressTest, ManyMixedSuccessAndFailureRethrowsLowestIndexError) {
  // get_or_run_many's contract under contention: every job completes even
  // when some fail, and the error that surfaces is the lowest-index one —
  // independent of the host thread count.
  std::vector<Scenario> list;
  list.push_back(tiny_scenario(400));
  list.push_back(doomed_scenario(401));  // lowest-index failure
  list.push_back(tiny_scenario(402));
  list.push_back(doomed_scenario(403));
  list.push_back(tiny_scenario(404));

  for (const int threads : {1, 4}) {
    ProfileStore store;
    try {
      (void)store.get_or_run_many(list, threads);
      ADD_FAILURE() << "mixed list must throw (threads=" << threads << ")";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().kind, StatusKind::kBudgetExceeded);
    }
    // The successes still ran to completion before the rethrow.
    EXPECT_EQ(store.stats().simulated, 3U) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace pp::core

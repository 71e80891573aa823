// The host-parallel experiment engine: parallel_for covers every index
// exactly once at any thread count, and the parallel sweep is bit-identical
// to the serial order.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/options.hpp"
#include "core/parallel.hpp"
#include "core/sweep.hpp"

namespace pp::core {
namespace {

TEST(ParallelFor, CoversEveryIndexOnce) {
  for (const int threads : {1, 2, 4, 7}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    parallel_for(hits.size(), threads, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(ParallelFor, HandlesEdgeCases) {
  int ran = 0;
  parallel_for(0, 4, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  parallel_for(1, 16, [&](std::size_t i) { ran += static_cast<int>(i) + 1; });
  EXPECT_EQ(ran, 1);  // threads are clamped to the job count
}

TEST(ParallelFor, EnvThreadsIsPositive) { EXPECT_GE(api::SessionOptions::from_env().threads, 1); }

// The acceptance property of the parallel sweep engine: results are
// bit-identical across host thread counts (each (level, seed) run is an
// independent deterministic machine; aggregation happens in serial order).
TEST(ParallelSweep, ThreadCountInvariance) {
  const std::vector<SynParams> levels = {{1, 2000, 12}, {32, 0, 12}};

  Testbed tb(Scale::kQuick, 1);
  // Isolated stores so the parallel pass genuinely re-simulates instead of
  // reading the serial pass's memoized results.
  ProfileStore store_a;
  SoloProfiler solo_a(tb, 1, store_a, 1);
  SweepProfiler serial(solo_a, 3);
  const SweepResult a = serial.sweep(FlowSpec::of(FlowType::kIp), ContentionMode::kBoth, levels);

  ProfileStore store_b;
  SoloProfiler solo_b(tb, 1, store_b, 4);
  SweepProfiler parallel4(solo_b, 3);
  const SweepResult b =
      parallel4.sweep(FlowSpec::of(FlowType::kIp), ContentionMode::kBoth, levels);

  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    // Bit-identical, not merely close: EXPECT_EQ on the doubles and on the
    // raw counters.
    EXPECT_EQ(a.levels[i].drop_pct, b.levels[i].drop_pct) << i;
    EXPECT_EQ(a.levels[i].competing_refs_per_sec, b.levels[i].competing_refs_per_sec) << i;
    EXPECT_EQ(a.levels[i].target.delta.packets, b.levels[i].target.delta.packets) << i;
    EXPECT_EQ(a.levels[i].target.delta.cycles, b.levels[i].target.delta.cycles) << i;
    EXPECT_EQ(a.levels[i].target.delta.l3_refs, b.levels[i].target.delta.l3_refs) << i;
    EXPECT_EQ(a.levels[i].target.delta.l3_misses, b.levels[i].target.delta.l3_misses) << i;
  }
}

// Regression for the pre-scenario-engine hazard (ROADMAP): two sweeps
// sharing one SoloProfiler raced its hidden std::map cache when they
// overlapped. The views are stateless now and the shared ProfileStore
// single-flights duplicate scenarios, so two concurrent sweeps — each
// itself fanned out over more than one thread — must reproduce the serial
// result bit-identically and simulate every scenario exactly once.
TEST(ParallelSweep, ConcurrentSweepsSharingOneSoloProfilerAreSafe) {
  const std::vector<SynParams> levels = {{1, 2000, 12}, {32, 0, 12}};
  Testbed tb(Scale::kQuick, 1);

  ProfileStore serial_store;
  SoloProfiler serial_solo(tb, 1, serial_store, 1);
  SweepProfiler serial(serial_solo, 3);
  const SweepResult ref =
      serial.sweep(FlowSpec::of(FlowType::kMon), ContentionMode::kBoth, levels);
  const std::uint64_t serial_simulated = serial_store.stats().simulated;

  ProfileStore store;
  SoloProfiler solo(tb, 1, store, 2);
  SweepProfiler shared(solo, 3);  // > 1 thread inside each sweep
  SweepResult a;
  SweepResult b;
  std::thread t1([&] {
    a = shared.sweep(FlowSpec::of(FlowType::kMon), ContentionMode::kBoth, levels);
  });
  std::thread t2([&] {
    b = shared.sweep(FlowSpec::of(FlowType::kMon), ContentionMode::kBoth, levels);
  });
  t1.join();
  t2.join();

  // Identical scenarios coalesced instead of racing: one simulation each.
  EXPECT_EQ(store.stats().simulated, serial_simulated);
  for (const SweepResult* r : {&a, &b}) {
    ASSERT_EQ(r->levels.size(), ref.levels.size());
    for (std::size_t i = 0; i < ref.levels.size(); ++i) {
      EXPECT_EQ(r->levels[i].drop_pct, ref.levels[i].drop_pct) << i;
      EXPECT_EQ(r->levels[i].competing_refs_per_sec, ref.levels[i].competing_refs_per_sec)
          << i;
      EXPECT_EQ(r->levels[i].target.delta.cycles, ref.levels[i].target.delta.cycles) << i;
      EXPECT_EQ(r->levels[i].target.delta.l3_refs, ref.levels[i].target.delta.l3_refs) << i;
      EXPECT_EQ(r->levels[i].target.delta.l3_misses, ref.levels[i].target.delta.l3_misses)
          << i;
    }
  }
}

// The same property must hold in sampled fidelity: the model RNG streams
// are per-machine, so host parallelism cannot perturb them.
TEST(ParallelSweep, ThreadCountInvarianceSampled) {
  const std::vector<SynParams> levels = {{32, 0, 12}};

  Testbed tb(Scale::kQuick, 1);
  tb.machine_config().fidelity = sim::SimFidelity::kSampled;
  ProfileStore store_a;
  SoloProfiler solo_a(tb, 1, store_a, 1);
  SweepProfiler serial(solo_a, 2);
  const SweepResult a = serial.sweep(FlowSpec::of(FlowType::kMon), ContentionMode::kBoth, levels);

  ProfileStore store_b;
  SoloProfiler solo_b(tb, 1, store_b, 3);
  SweepProfiler parallel3(solo_b, 2);
  const SweepResult b =
      parallel3.sweep(FlowSpec::of(FlowType::kMon), ContentionMode::kBoth, levels);

  ASSERT_EQ(a.levels.size(), b.levels.size());
  EXPECT_EQ(a.levels[0].drop_pct, b.levels[0].drop_pct);
  EXPECT_EQ(a.levels[0].target.delta.cycles, b.levels[0].target.delta.cycles);
  EXPECT_EQ(a.levels[0].target.delta.l3_misses, b.levels[0].target.delta.l3_misses);
}

}  // namespace
}  // namespace pp::core

// Shared scenario/machine-config fixture factory for the test tree.
//
// Nearly every core/sim integration test wants the same setup: a quick-scale
// testbed with an explicitly pinned fidelity (a Testbed reads nothing from
// the environment, so `SIM_FIDELITY=sampled ctest` cannot change what a
// test asserts), short measurement windows, a profiler stack over an
// isolated ProfileStore, and bitwise counter comparisons. Centralizing them keeps the fidelity-tier matrix in
// one place: a test names the tier it runs, not the five knobs behind it.
#pragma once

#include <gtest/gtest.h>

#include <optional>

#include "api/options.hpp"
#include "core/profile_store.hpp"
#include "core/profiler.hpp"
#include "core/sweep.hpp"
#include "core/testbed.hpp"
#include "sim/types.hpp"

namespace pp::test {

/// A quick-scale machine config pinned to one fidelity tier. `period_max` 0
/// keeps the config's default (== sample_period: adaptive widening off).
inline sim::MachineConfig machine_config(sim::SimFidelity f,
                                         std::uint32_t sample_period = 8,
                                         std::uint32_t period_max = 0,
                                         std::uint64_t sample_seed = 0x5eedU) {
  sim::MachineConfig cfg;
  cfg.fidelity = f;
  cfg.sample_period = sample_period;
  cfg.sample_period_max = period_max != 0 ? period_max : sample_period;
  cfg.sample_seed = sample_seed;
  return cfg;
}

/// Sampled-fidelity config for memory-system level tests (wide period 16 by
/// default so residue arithmetic is exercised beyond the shipping default).
inline sim::MachineConfig sampled_machine(std::uint64_t sample_seed = 0,
                                          std::uint32_t sample_period = 16) {
  return machine_config(sim::SimFidelity::kSampled, sample_period, 0, sample_seed);
}

/// Quick-scale testbed pinned to `f` (default exact). `period_max` 0 = the
/// tier's default ceiling, resolved exactly as a session resolves it.
inline core::Testbed quick_testbed(sim::SimFidelity f = sim::SimFidelity::kExact,
                                   std::uint64_t seed = 1,
                                   std::uint32_t period_max = 0) {
  core::Testbed tb(Scale::kQuick, seed);
  sim::MachineConfig& m = tb.machine_config();
  m.fidelity = f;
  m.sample_period_max = period_max != 0
                            ? period_max
                            : api::resolve_sample_period_max(f, m.sample_period, std::nullopt);
  return tb;
}

/// Host threads for the test views: at least two, so every fan-out a test
/// drives runs concurrently (and under TSan, instrumented).
inline constexpr int kTestThreads = 2;

/// Short-window run config: integration tests that only need coherence (not
/// statistical stability) keep their simulated windows tiny.
inline core::RunConfig fast_run(std::vector<core::FlowSpec> flows, std::uint64_t seed = 1,
                                double warmup_ms = 0.3, double measure_ms = 0.7) {
  core::RunConfig cfg = core::RunConfig::simple(std::move(flows), seed);
  cfg.warmup_ms = warmup_ms;
  cfg.measure_ms = measure_ms;
  return cfg;
}

/// The full profiling/prediction stack over an isolated in-memory store (no
/// cross-test sharing, no PROFILE_CACHE), fanning out over kTestThreads.
struct ProfilerRig {
  core::Testbed tb;
  core::ProfileStore store;
  core::SoloProfiler solo;
  core::SweepProfiler sweep;

  explicit ProfilerRig(sim::SimFidelity f = sim::SimFidelity::kExact, int seeds = 1,
                       int competitors = 5, std::uint64_t seed = 1,
                       std::uint32_t period_max = 0)
      : tb(quick_testbed(f, seed, period_max)), solo(tb, seeds, store, kTestThreads),
        sweep(solo, competitors) {}
};

/// Bitwise equality of two counter sets (the repeatability lock: equal
/// scenarios must produce equal bits, across processes and thread counts).
inline void expect_counters_equal(const sim::Counters& a, const sim::Counters& b,
                                  const char* what) {
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.l1_hits, b.l1_hits) << what;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << what;
  EXPECT_EQ(a.l2_hits, b.l2_hits) << what;
  EXPECT_EQ(a.l2_misses, b.l2_misses) << what;
  EXPECT_EQ(a.l3_refs, b.l3_refs) << what;
  EXPECT_EQ(a.l3_misses, b.l3_misses) << what;
  EXPECT_EQ(a.xcore_hits, b.xcore_hits) << what;
  EXPECT_EQ(a.remote_refs, b.remote_refs) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
  EXPECT_EQ(a.mc_queue_cycles, b.mc_queue_cycles) << what;
  EXPECT_EQ(a.qpi_queue_cycles, b.qpi_queue_cycles) << what;
  EXPECT_EQ(a.packets, b.packets) << what;
  EXPECT_EQ(a.drops, b.drops) << what;
}

inline void expect_metrics_equal(const core::FlowMetrics& a, const core::FlowMetrics& b,
                                 const char* what) {
  EXPECT_EQ(a.seconds, b.seconds) << what;
  expect_counters_equal(a.delta, b.delta, what);
}

/// Signed relative drift of `value` against `reference`, in percent.
inline double drift_pct(double value, double reference) {
  return 100.0 * (value - reference) / reference;
}

}  // namespace pp::test

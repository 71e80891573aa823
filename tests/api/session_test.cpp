// api::Session batch execution: repeated specs cost no simulation, bitwise
// serial-vs-parallel identity over a 12-spec batch, NaN-free structured
// results for degenerate specs, and the corun's single store fan-out locked
// byte-for-byte to the serial solo-after-corun composition.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include "core/profile_store.hpp"

namespace pp::api {
namespace {

using core::FlowSpec;
using core::FlowType;

/// Session options pinned for test isolation: quick scale, exact fidelity,
/// no cache directories (tests still inject a store to read its stats).
SessionOptions test_options(int threads = 1) {
  return SessionOptions{}.with_scale(Scale::kQuick).with_threads(threads);
}

/// A cheap corun spec (sub-millisecond windows).
ExperimentSpec tiny_corun(FlowType a, FlowType b, std::uint64_t seed = 1) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kCorun;
  spec.flows = {FlowSpec::of(a), FlowSpec::of(b, 2)};
  spec.seed = seed;
  spec.warmup_ms = 0.2;
  spec.measure_ms = 0.4;
  return spec;
}

/// A corun spec over `flows` at `fidelity` with the scale's default windows.
ExperimentSpec corun_of(std::vector<FlowSpec> flows, sim::SimFidelity fidelity) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kCorun;
  spec.flows = std::move(flows);
  spec.fidelity = fidelity;
  return spec;
}

/// The serial composition a corun is locked to: the corun plan fanned out
/// alone, then one fan-out per flow for its solo baseline, on `store`.
Result serial_corun(const ExperimentSpec& spec, core::ProfileStore& store) {
  const SessionOptions eff = apply_spec(spec, test_options());
  ViewStack v(eff, spec.seeds, store);
  Result res;
  res.kind = spec.kind;
  res.scale = eff.scale;
  res.fidelity = eff.fidelity;
  res.seeds = v.solo.seeds();
  const auto runs = store.get_or_run_many(lower_spec(spec, v.tb), 1);
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    std::vector<core::FlowMetrics> per_seed;
    for (const auto& r : runs) per_seed.push_back((*r)[i]);
    FlowReport fr;
    fr.spec = spec.flows[i];
    fr.metrics = core::merge_metrics(per_seed);
    const core::FlowMetrics solo =
        core::SoloProfiler::merge_plan(store.get_or_run_many(v.solo.plan(spec.flows[i]), 1));
    fr.solo_pps = solo.pps();
    fr.drop_pct = core::drop_pct(solo, fr.metrics);
    res.flows.push_back(std::move(fr));
  }
  return res;
}

void expect_same_bytes(const Result& want, const Result& got, const std::string& what) {
  ASSERT_TRUE(got.ok()) << what << ": " << got.to_text();
  EXPECT_EQ(want.to_text(), got.to_text()) << what;
  EXPECT_EQ(want.to_csv(), got.to_csv()) << what;
  EXPECT_EQ(want.to_json(), got.to_json()) << what;
}

TEST(Session, RunManyDuplicatesCostNoSimulation) {
  // run_many has no dedup of its own: every entry runs, and the store makes
  // a repeated spec cost no simulation.
  const std::vector<ExperimentSpec> distinct = {tiny_corun(FlowType::kIp, FlowType::kMon, 1),
                                                tiny_corun(FlowType::kIp, FlowType::kMon, 2),
                                                tiny_corun(FlowType::kMon, FlowType::kVpn, 1),
                                                tiny_corun(FlowType::kVpn, FlowType::kIp, 1)};
  core::ProfileStore ref_store;
  Session ref(test_options(1), &ref_store);
  const std::vector<Result> want = ref.run_many(distinct);

  // 12 specs, 4 distinct (each repeated 3x).
  std::vector<ExperimentSpec> batch;
  for (int rep = 0; rep < 3; ++rep) batch.insert(batch.end(), distinct.begin(), distinct.end());
  core::ProfileStore store;
  Session session(test_options(2), &store);
  const std::vector<Result> results = session.run_many(batch);
  ASSERT_EQ(results.size(), 12U);
  EXPECT_EQ(store.stats().simulated, ref_store.stats().simulated)
      << "a repeated spec must not re-simulate";

  // Every repeat renders its original's bytes in every format.
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (const char* format : {"text", "csv", "json"}) {
      EXPECT_EQ(render_result(results[i], format), render_result(want[i % 4], format))
          << i << " " << format;
    }
  }
  // Distinct specs differ (different seeds change the traffic).
  EXPECT_NE(results[0].to_json(), results[1].to_json());
}

TEST(Session, RunManyBitIdenticalSerialVsParallel) {
  // The acceptance lock: a 12-spec batch produces byte-identical serialized
  // results whether the session runs single-threaded or with 4 host
  // threads (fresh stores on both sides so nothing is pre-memoized).
  std::vector<ExperimentSpec> batch;
  for (int rep = 0; rep < 3; ++rep) {
    batch.push_back(tiny_corun(FlowType::kIp, FlowType::kMon, 1));
    batch.push_back(tiny_corun(FlowType::kIp, FlowType::kMon, 2));
    batch.push_back(tiny_corun(FlowType::kMon, FlowType::kVpn, 1));
    batch.push_back(tiny_corun(FlowType::kVpn, FlowType::kIp, 1));
  }

  core::ProfileStore serial_store;
  Session serial(test_options(1), &serial_store);
  const std::vector<Result> serial_results = serial.run_many(batch);

  core::ProfileStore parallel_store;
  Session parallel(test_options(4), &parallel_store);
  const std::vector<Result> parallel_results = parallel.run_many(batch);

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    EXPECT_EQ(serial_results[i].to_json(), parallel_results[i].to_json())
        << "spec " << i << " diverged across thread counts";
  }
  // Both sides simulated the same scenario set exactly once each.
  EXPECT_EQ(serial_store.stats().simulated, parallel_store.stats().simulated);
}

TEST(Session, PredictRestoresEachSweepGroupsWarmStateFourTimes) {
  // A predict sweeps every flow over the five quick ramp levels at one seed;
  // the levels share one machine setup, so one level prewarms and the other
  // four restore its warm state: prewarm_shared = 4 per flow on a fresh
  // store at one host thread.
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kPredict;
  spec.flows = {FlowSpec::of(FlowType::kMon, 3), FlowSpec::of(FlowType::kIp, 4)};
  spec.fidelity = sim::SimFidelity::kStreamed;
  core::ProfileStore store;
  Session session(test_options(1), &store);
  const Result r = session.run(spec);
  ASSERT_TRUE(r.ok()) << r.to_text();
  EXPECT_EQ(store.stats().prewarm_shared, 4U * spec.flows.size());
  EXPECT_EQ(core::SetupShare::live_snapshots(), 0);
}

TEST(Session, DegenerateZeroWindowSpecReportsCleanZeros) {
  core::ProfileStore store;
  Session session(test_options(), &store);

  ExperimentSpec spec = tiny_corun(FlowType::kIp, FlowType::kMon);
  spec.measure_ms = 0.0;  // nothing measured: all deltas are zero
  const Result r = session.run(spec);

  ASSERT_EQ(r.flows.size(), 2U);
  for (const FlowReport& fr : r.flows) {
    EXPECT_EQ(fr.metrics.delta.packets, 0U);
    EXPECT_EQ(fr.metrics.pps(), 0.0);
    EXPECT_EQ(fr.metrics.cpi(), 0.0);
    EXPECT_EQ(fr.metrics.cycles_per_packet(), 0.0);
    EXPECT_EQ(fr.drop_pct, 100.0);  // solo runs, the mix does not
  }
  const std::string json = r.to_json();
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(Session, SoloResultMatchesProfilerView) {
  core::ProfileStore store;
  Session session(test_options(), &store);

  ExperimentSpec spec;
  spec.kind = ExperimentKind::kSolo;
  spec.flows = {FlowSpec::of(FlowType::kIp)};
  spec.warmup_ms = 0.2;
  spec.measure_ms = 0.4;
  const Result r = session.run(spec);
  ASSERT_EQ(r.flows.size(), 1U);
  EXPECT_GT(r.flows[0].metrics.delta.packets, 0U);
  EXPECT_DOUBLE_EQ(r.flows[0].solo_pps, r.flows[0].metrics.pps());

  // Same spec again: everything is memoized, nothing re-simulates.
  const std::uint64_t simulated = store.stats().simulated;
  (void)session.run(spec);
  EXPECT_EQ(store.stats().simulated, simulated);
}

TEST(Session, CorunFanOutMatchesSerialComposition) {
  // One store fan-out (corun seeds + every flow's solo plan, heaviest
  // first) renders exactly what the serial composition rendered, at any
  // thread count, and simulates nothing beyond the 1 + N scenarios.
  const std::vector<FlowSpec> flows = {FlowSpec::of(FlowType::kIp), FlowSpec::of(FlowType::kMon),
                                       FlowSpec::of(FlowType::kFw), FlowSpec::of(FlowType::kRe)};
  for (const sim::SimFidelity fidelity : {sim::SimFidelity::kExact, sim::SimFidelity::kStreamed}) {
    const ExperimentSpec spec = corun_of(flows, fidelity);
    core::ProfileStore ref_store;
    const Result want = serial_corun(spec, ref_store);
    for (const int threads : {1, 4}) {
      const std::string what =
          std::string(sim::to_string(fidelity)) + " threads=" + std::to_string(threads);
      core::ProfileStore store;
      Session session(test_options(threads), &store);
      expect_same_bytes(want, session.run(spec), what);
      EXPECT_EQ(store.stats().simulated, 1 + flows.size()) << what;
      EXPECT_EQ(store.stats().coalesced, ref_store.stats().coalesced) << what;
    }
  }
}

TEST(Session, CorunRepeatedFlowSpecSharesOneSoloPlan) {
  // A mix that repeats a flow spec lays out its solo plan twice; the store
  // collapses the repeated keys inside the fan-out, so nothing re-simulates
  // and nothing coalesces that did not before.
  const FlowSpec ip = FlowSpec::of(FlowType::kIp);
  const ExperimentSpec spec =
      corun_of({ip, FlowSpec::of(FlowType::kMon), ip}, sim::SimFidelity::kStreamed);
  core::ProfileStore ref_store;
  const Result want = serial_corun(spec, ref_store);
  for (const int threads : {1, 4}) {
    const std::string what = "threads=" + std::to_string(threads);
    core::ProfileStore store;
    Session session(test_options(threads), &store);
    expect_same_bytes(want, session.run(spec), what);
    EXPECT_EQ(store.stats().simulated, ref_store.stats().simulated) << what;
    EXPECT_EQ(store.stats().simulated, 1U + 2U) << what;
    EXPECT_EQ(store.stats().coalesced, ref_store.stats().coalesced) << what;
  }
}

TEST(ViewStack, EveryViewRunsOnTheSessionsThreadCount) {
  // SessionOptions::threads is the only source of host parallelism: each
  // view that fans out reports exactly the session's count.
  core::ProfileStore store;
  for (const int threads : {1, 3}) {
    ViewStack v(test_options(threads), 0, store);
    EXPECT_EQ(v.solo.threads(), threads);
    EXPECT_EQ(v.sweep.solo().threads(), threads);
    EXPECT_EQ(v.placement.solo().threads(), threads);
  }
}

}  // namespace
}  // namespace pp::api

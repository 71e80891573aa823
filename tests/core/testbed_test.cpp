#include "core/testbed.hpp"

#include <gtest/gtest.h>

#include "common/fixtures.hpp"
#include "core/profiler.hpp"
#include "core/scenario.hpp"

namespace pp::core {
namespace {

using pp::test::fast_run;
using pp::test::quick_testbed;

ScenarioResult run(const Testbed& tb, const RunConfig& cfg) {
  return run_scenario(Scenario::of(tb, cfg));
}

TEST(Testbed, SoloRunProducesCoherentMetrics) {
  Testbed tb = quick_testbed();
  RunConfig cfg = fast_run({FlowSpec::of(FlowType::kIp)});
  const auto r = run(tb, cfg);
  ASSERT_EQ(r.size(), 1U);
  const FlowMetrics& m = r[0];
  EXPECT_GT(m.delta.packets, 100U);
  EXPECT_GT(m.pps(), 0.0);
  EXPECT_GT(m.cpi(), 0.0);
  EXPECT_EQ(m.delta.l3_hits(), m.delta.l3_refs - m.delta.l3_misses);
  EXPECT_GE(m.delta.l3_refs, m.delta.l3_misses);
  EXPECT_NEAR(m.seconds, 0.7e-3, 0.1e-3);
}

TEST(Testbed, DeterministicForSameSeed) {
  Testbed tb = quick_testbed();
  const auto a = run(tb, fast_run({FlowSpec::of(FlowType::kMon)}));
  const auto b = run(tb, fast_run({FlowSpec::of(FlowType::kMon)}));
  EXPECT_EQ(a[0].delta.packets, b[0].delta.packets);
  EXPECT_EQ(a[0].delta.cycles, b[0].delta.cycles);
  EXPECT_EQ(a[0].delta.l3_refs, b[0].delta.l3_refs);
}

TEST(Testbed, DifferentSeedsDiffer) {
  Testbed tb = quick_testbed();
  RunConfig a = fast_run({FlowSpec::of(FlowType::kIp)});
  RunConfig b = fast_run({FlowSpec::of(FlowType::kIp)});
  b.seed = 999;
  EXPECT_NE(run(tb, a)[0].delta.l3_refs, run(tb, b)[0].delta.l3_refs);
}

TEST(Testbed, PlacementPutsFlowsOnRequestedCores) {
  Testbed tb = quick_testbed();
  RunConfig cfg = fast_run({FlowSpec::of(FlowType::kIp), FlowSpec::of(FlowType::kIp)});
  cfg.placement[1].core = 7;  // other socket
  const auto r = run(tb, cfg);
  EXPECT_EQ(r[0].core, 0);
  EXPECT_EQ(r[1].core, 7);
  EXPECT_GT(r[1].delta.packets, 0U);
}

TEST(Testbed, RemoteDataDomainShowsRemoteRefs) {
  Testbed tb = quick_testbed();
  RunConfig local = fast_run({FlowSpec::of(FlowType::kIp)});
  RunConfig remote = fast_run({FlowSpec::of(FlowType::kIp)});
  remote.placement[0].data_domain = 1;  // data on the far socket
  const auto lr = run(tb, local);
  const auto rr = run(tb, remote);
  EXPECT_EQ(lr[0].delta.remote_refs, 0U);
  EXPECT_GT(rr[0].delta.remote_refs, 0U);
  // Remote access costs throughput (the paper's NUMA-local rule).
  EXPECT_LT(rr[0].pps(), lr[0].pps());
}

TEST(Testbed, CoRunnersInterleaveOnOneSocket) {
  Testbed tb = quick_testbed();
  std::vector<FlowSpec> flows;
  for (int i = 0; i < 6; ++i) flows.push_back(FlowSpec::of(FlowType::kIp, i + 1));
  const auto r = run(tb, fast_run(std::move(flows)));
  for (const auto& m : r) EXPECT_GT(m.delta.packets, 50U);
}

TEST(Testbed, ElementStatsIncludeSkbRecycle) {
  Testbed tb = quick_testbed();
  const auto r = run(tb, fast_run({FlowSpec::of(FlowType::kIp)}));
  bool found = false;
  for (const auto& e : r[0].elements) {
    if (e.name == "skb_recycle") {
      found = true;
      EXPECT_GT(e.delta.cycles, 0U);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MergeMetrics, PoolsCountsAndSeconds) {
  Testbed tb = quick_testbed();
  const auto a = run(tb, fast_run({FlowSpec::of(FlowType::kIp)}));
  const FlowMetrics merged = merge_metrics({a[0], a[0]});
  EXPECT_EQ(merged.delta.packets, 2 * a[0].delta.packets);
  EXPECT_DOUBLE_EQ(merged.seconds, 2 * a[0].seconds);
  EXPECT_NEAR(merged.pps(), a[0].pps(), 1e-9);
}

TEST(DropPct, ComputesRelativeDrop) {
  FlowMetrics solo;
  solo.seconds = 1;
  solo.delta.packets = 1000;
  FlowMetrics corun;
  corun.seconds = 1;
  corun.delta.packets = 800;
  EXPECT_NEAR(drop_pct(solo, corun), 20.0, 1e-9);
}

}  // namespace
}  // namespace pp::core

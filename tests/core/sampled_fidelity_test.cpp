// SimFidelity::kSampled at the experiment level: sampled runs are
// deterministic for a fixed seed, stay close to the exact reference on the
// solo profiles, and reproduce the Figure 4 drop-vs-competing-refs shape
// within the documented tolerance (docs/simulation_modes.md).
#include <gtest/gtest.h>

#include <cmath>

#include "common/fixtures.hpp"
#include "core/profiler.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "core/testbed.hpp"

namespace pp::core {
namespace {

Testbed sampled_testbed() { return pp::test::quick_testbed(sim::SimFidelity::kSampled); }

/// One flow alone on core 0 (the paper's "solo run").
FlowMetrics solo_run(const Testbed& tb, FlowType t) {
  return run_scenario(Scenario::of(tb, tb.configure({FlowSpec::of(t)})))[0];
}

TEST(SampledFidelity, DefaultIsExact) {
  sim::MachineConfig cfg;
  EXPECT_EQ(cfg.fidelity, sim::SimFidelity::kExact);
  // A Testbed reads nothing from the environment: exact, whatever
  // SIM_FIDELITY says.
  Testbed tb(Scale::kQuick, 1);
  EXPECT_EQ(tb.machine_config().fidelity, sim::SimFidelity::kExact);
}

TEST(SampledFidelity, SoloRunIsDeterministicUnderFixedSeed) {
  Testbed tb = sampled_testbed();
  const FlowMetrics a = solo_run(tb, FlowType::kMon);
  const FlowMetrics b = solo_run(tb, FlowType::kMon);
  EXPECT_EQ(a.delta.packets, b.delta.packets);
  EXPECT_EQ(a.delta.cycles, b.delta.cycles);
  EXPECT_EQ(a.delta.instructions, b.delta.instructions);
  EXPECT_EQ(a.delta.l3_refs, b.delta.l3_refs);
  EXPECT_EQ(a.delta.l3_misses, b.delta.l3_misses);
  EXPECT_EQ(a.delta.l1_hits, b.delta.l1_hits);
}

TEST(SampledFidelity, SampleSeedChangesTheDraws) {
  Testbed tb = sampled_testbed();
  const FlowMetrics a = solo_run(tb, FlowType::kMon);
  tb.machine_config().sample_seed = 12345;
  const FlowMetrics b = solo_run(tb, FlowType::kMon);
  // Different seed, different tracked residue and RNG streams; the counters
  // should differ slightly but the throughput must stay in the same regime.
  EXPECT_NE(a.delta.cycles, b.delta.cycles);
  EXPECT_NEAR(b.pps() / a.pps(), 1.0, 0.05);
}

TEST(SampledFidelity, SoloProfilesCloseToExact) {
  Testbed exact = pp::test::quick_testbed();
  Testbed sampled = sampled_testbed();
  for (const FlowType t : {FlowType::kIp, FlowType::kMon, FlowType::kFw}) {
    const FlowMetrics e = solo_run(exact, t);
    const FlowMetrics s = solo_run(sampled, t);
    EXPECT_NEAR(s.pps() / e.pps(), 1.0, 0.03) << to_string(t);
    EXPECT_NEAR(s.refs_per_packet() / (e.refs_per_packet() + 1e-9), 1.0, 0.15)
        << to_string(t);
  }
}

// The headline fidelity requirement: the sampled Figure 4 drop curve must
// stay within the documented tolerance of the exact one, point by point.
TEST(SampledFidelity, Figure4ShapeWithinTolerance) {
  const std::vector<SynParams> levels = {{1, 3000, 12}, {8, 100, 12}, {32, 0, 12}};

  pp::test::ProfilerRig exact_rig;
  const SweepResult exact =
      exact_rig.sweep.sweep(FlowSpec::of(FlowType::kMon), ContentionMode::kBoth, levels);

  pp::test::ProfilerRig samp_rig(sim::SimFidelity::kSampled);
  const SweepResult samp =
      samp_rig.sweep.sweep(FlowSpec::of(FlowType::kMon), ContentionMode::kBoth, levels);

  ASSERT_EQ(exact.levels.size(), samp.levels.size());
  for (std::size_t i = 0; i < exact.levels.size(); ++i) {
    // Documented tolerance: 3.5 percentage points at quick scale (the
    // 2-point standard-scale target plus the quick windows' own ~1.5 pt
    // wobble; see docs/simulation_modes.md).
    EXPECT_NEAR(samp.levels[i].drop_pct, exact.levels[i].drop_pct, 3.5)
        << "level " << i << ": exact " << exact.levels[i].drop_pct << " vs sampled "
        << samp.levels[i].drop_pct;
    // The x axis (competing refs/sec) must agree too: the SYN competitors'
    // reference rate is itself mostly modeled in sampled mode.
    EXPECT_NEAR(samp.levels[i].competing_refs_per_sec /
                    (exact.levels[i].competing_refs_per_sec + 1e-9),
                1.0, 0.05)
        << "level " << i;
  }
  // Shape: the drop must still rise monotonically with aggressiveness.
  EXPECT_LT(samp.levels[0].drop_pct, samp.levels.back().drop_pct);
  EXPECT_GT(samp.levels.back().drop_pct, 10.0);
}

}  // namespace
}  // namespace pp::core

// The paper's predictor (Section 4) through its one code path: a target's
// normal-placement SYN sweep plus its competitors' solo profiles, combined by
// predict_drop.
#include <gtest/gtest.h>

#include "common/fixtures.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"

namespace pp::core {
namespace {

class PredictorTest : public ::testing::Test {
 protected:
  PredictorTest() : tb_(rig_.tb), solo_(rig_.solo), sweep_(rig_.sweep) {}

  /// Offline profiling of `t`: solo profile + SYN sweep, normal NUMA-local
  /// placement.
  [[nodiscard]] SweepResult profile(FlowType t) const {
    return sweep_.sweep(FlowSpec::of(t), ContentionMode::kBoth,
                        SweepProfiler::default_levels(tb_.scale()));
  }

  /// Five competitors of type `t`, at their solo profile.
  [[nodiscard]] std::vector<FlowMetrics> five(FlowType t) const {
    return std::vector<FlowMetrics>(5, solo_.profile(t));
  }

  pp::test::ProfilerRig rig_;
  Testbed& tb_;
  SoloProfiler& solo_;
  SweepProfiler& sweep_;
};

TEST_F(PredictorTest, PredictSumsCompetitorRefs) {
  // predict_drop must read the curve at the sum of the competitors' solo refs.
  const std::vector<FlowMetrics> comps = five(FlowType::kFw);
  double sum = 0;
  for (const FlowMetrics& c : comps) sum += c.refs_per_sec();
  const SweepResult mon = profile(FlowType::kMon);
  EXPECT_DOUBLE_EQ(predict_drop(mon, comps), mon.curve.drop_at(sum));
}

TEST_F(PredictorTest, MorePressureNeverPredictsLess) {
  const SweepCurve curve = profile(FlowType::kMon).curve;
  const double low = curve.drop_at(20e6);
  const double high = curve.drop_at(250e6);
  EXPECT_LE(low, high);
  EXPECT_GT(high, 5.0);
}

TEST_F(PredictorTest, InsensitiveTargetPredictsSmallDrop) {
  // FW has almost no L3 hits to lose: even heavy competition predicts a
  // small drop relative to MON's.
  const double fw = profile(FlowType::kFw).curve.drop_at(200e6);
  const double mon = profile(FlowType::kMon).curve.drop_at(200e6);
  EXPECT_LT(fw, mon);
}

TEST_F(PredictorTest, ProfileIsIdempotent) {
  const SweepCurve curve1 = profile(FlowType::kVpn).curve;
  const auto simulated_after_first = solo_.store().stats().simulated;
  const SweepCurve curve2 = profile(FlowType::kVpn).curve;
  // Re-profiling aggregates memoized scenario results; nothing re-simulates
  // and the curve is reproduced bit-identically.
  EXPECT_EQ(solo_.store().stats().simulated, simulated_after_first);
  ASSERT_EQ(curve1.points().size(), curve2.points().size());
  for (std::size_t i = 0; i < curve1.points().size(); ++i) {
    EXPECT_EQ(curve1.points()[i].competing_refs_per_sec,
              curve2.points()[i].competing_refs_per_sec);
    EXPECT_EQ(curve1.points()[i].drop_pct, curve2.points()[i].drop_pct);
  }
}

// End-to-end prediction accuracy on one mix (quick-scale smoke version of
// Figure 8; the fig8 artifact reproduces the full matrix).
TEST_F(PredictorTest, PairwisePredictionWithinTolerance) {
  const FlowType target = FlowType::kMon;
  const FlowType comp = FlowType::kFw;
  RunConfig cfg = tb_.configure({FlowSpec::of(target)});
  for (int i = 0; i < 5; ++i) {
    cfg.flows.push_back(FlowSpec::of(comp, i + 2));
    cfg.placement.push_back(FlowPlacement{1 + i, -1});
  }
  const ScenarioResult run = run_scenario(Scenario::of(tb_, cfg));
  const SweepResult mon = profile(target);
  const double actual = drop_pct(mon.solo, run[0]);
  const double predicted = predict_drop(mon, five(comp));
  EXPECT_NEAR(predicted, actual, 6.0);
}

}  // namespace
}  // namespace pp::core

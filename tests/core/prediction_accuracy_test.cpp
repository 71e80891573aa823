// Golden paper-style prediction-accuracy check, per fidelity tier.
//
// The paper's headline result (Section 5, Figure 8): predicting a flow's
// throughput drop from its SYN sweep curve plus the competitors' solo
// refs/sec stays within a few percent of the measured co-run. Our testbed is
// simulated, so the same claim must hold per fidelity tier — the exact tier
// carries only the methodology error (prediction model vs actual co-run
// dynamics), and the statistical tiers (sampled, streamed) may add at most
// their documented drift budget on top. Locking this as a tier-1 ctest
// makes prediction accuracy an enforced property, not just a bench table.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/fixtures.hpp"
#include "core/predictor.hpp"

namespace pp::core {
namespace {

/// Prediction-vs-measured error (in percentage points of throughput drop)
/// for `target` co-running with 5 FW competitors, everything at `f`.
double prediction_error_pts(sim::SimFidelity f, FlowType target) {
  pp::test::ProfilerRig rig(f);
  ContentionPredictor pred(rig.solo, rig.sweep);

  RunConfig cfg = rig.tb.configure({FlowSpec::of(target)});
  for (int i = 0; i < 5; ++i) {
    cfg.flows.push_back(FlowSpec::of(FlowType::kFw, static_cast<std::uint64_t>(i) + 2));
    cfg.placement.push_back(FlowPlacement{1 + i, -1});
  }
  const std::vector<FlowMetrics> corun = rig.tb.run(cfg);
  const double actual = drop_pct(rig.solo.profile(target), corun[0]);
  const double predicted =
      pred.predict(target, {FlowType::kFw, FlowType::kFw, FlowType::kFw, FlowType::kFw,
                            FlowType::kFw});
  // Printed, not only asserted, so each tier's error is tracked run to run.
  std::printf("[ measured ] %s %s + 5 FW: predicted %.2f%%, measured %.2f%%, error %+.2f pts\n",
              sim::to_string(f), to_string(target), predicted, actual, predicted - actual);
  return predicted - actual;
}

/// The paper-style error envelopes, in percentage points of drop. The exact
/// tier's envelope is the methodology error alone (the paper reports "within
/// a few percent"; the existing pairwise predictor test uses 6 pts at quick
/// scale); the statistical tiers may add their pps drift budget on top.
constexpr double kExactEnvelopePts = 6.0;
constexpr double kStatisticalEnvelopePts = 8.0;

class PredictionAccuracy : public ::testing::TestWithParam<FlowType> {};

TEST_P(PredictionAccuracy, ExactWithinMethodologyEnvelope) {
  const double err = prediction_error_pts(sim::SimFidelity::kExact, GetParam());
  EXPECT_LE(std::abs(err), kExactEnvelopePts) << to_string(GetParam());
}

TEST_P(PredictionAccuracy, SampledWithinDriftedEnvelope) {
  const double err = prediction_error_pts(sim::SimFidelity::kSampled, GetParam());
  EXPECT_LE(std::abs(err), kStatisticalEnvelopePts) << to_string(GetParam());
}

TEST_P(PredictionAccuracy, StreamedWithinDriftedEnvelope) {
  const double err = prediction_error_pts(sim::SimFidelity::kStreamed, GetParam());
  EXPECT_LE(std::abs(err), kStatisticalEnvelopePts) << to_string(GetParam());
}

// The Table-1 chains. MON is the cache-sensitive flag-bearer, FW the
// insensitive control, VPN the compute-heavy middle; IP and RE ride in the
// exact tier via the sweep-shape test below (their full three-tier matrix
// would double the suite's runtime for little extra signal — RE dominates
// simulation cost).
INSTANTIATE_TEST_SUITE_P(Table1Chains, PredictionAccuracy,
                         ::testing::Values(FlowType::kMon, FlowType::kFw, FlowType::kVpn),
                         [](const ::testing::TestParamInfo<FlowType>& info) {
                           return std::string(to_string(info.param));
                         });

// IP and RE complete the Table-1 coverage at the exact tier.
TEST(PredictionAccuracyRest, IpAndReExactWithinEnvelope) {
  for (const FlowType t : {FlowType::kIp, FlowType::kRe}) {
    const double err = prediction_error_pts(sim::SimFidelity::kExact, t);
    EXPECT_LE(std::abs(err), kExactEnvelopePts) << to_string(t);
  }
}

// Cross-tier agreement: the statistical tiers must predict nearly the same
// drop as the exact tier for the same mix (this is the differential view of
// the same claim, independent of the co-run measurement).
TEST(PredictionAccuracyRest, TiersAgreeOnPrediction) {
  const std::vector<FlowType> comps(5, FlowType::kFw);
  double exact_pred = 0;
  for (const sim::SimFidelity f :
       {sim::SimFidelity::kExact, sim::SimFidelity::kSampled, sim::SimFidelity::kStreamed}) {
    pp::test::ProfilerRig rig(f);
    ContentionPredictor pred(rig.solo, rig.sweep);
    const double p = pred.predict(FlowType::kMon, comps);
    if (f == sim::SimFidelity::kExact) {
      exact_pred = p;
    } else {
      EXPECT_NEAR(p, exact_pred, 4.0) << sim::to_string(f);
    }
  }
}

}  // namespace
}  // namespace pp::core

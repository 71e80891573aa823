#include "core/placement.hpp"

#include <gtest/gtest.h>

#include "common/fixtures.hpp"

namespace pp::core {
namespace {

std::vector<FlowSpec> combo(FlowType a, FlowType b) {
  std::vector<FlowSpec> flows;
  for (int i = 0; i < 6; ++i) flows.push_back(FlowSpec::of(a, i + 1));
  for (int i = 0; i < 6; ++i) flows.push_back(FlowSpec::of(b, i + 7));
  return flows;
}

/// One store for the whole suite, so the cases share their solo runs.
ProfileStore& suite_store() {
  static ProfileStore store;
  return store;
}

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest()
      : tb_(Scale::kQuick, 1),
        solo_(tb_, 1, suite_store(), pp::test::kTestThreads),
        eval_(solo_) {}

  Testbed tb_;
  SoloProfiler solo_;
  PlacementEvaluator eval_;
};

TEST_F(PlacementTest, TwoTypeComboHasFourDistinctSplits) {
  // 6+6 of two types: socket-0 share of type A in {6,5,4,3} after symmetric
  // dedupe -> 4 placements.
  const PlacementStudy study = eval_.evaluate(combo(FlowType::kFw, FlowType::kSynMax));
  EXPECT_EQ(study.placements_evaluated, 4);
}

TEST_F(PlacementTest, SingleTypeComboHasOneSplit) {
  const PlacementStudy study = eval_.evaluate(combo(FlowType::kFw, FlowType::kFw));
  EXPECT_EQ(study.placements_evaluated, 1);
}

TEST_F(PlacementTest, BestNeverWorseThanWorst) {
  const PlacementStudy study = eval_.evaluate(combo(FlowType::kMon, FlowType::kFw));
  EXPECT_LE(study.best.avg_drop_pct, study.worst.avg_drop_pct);
  EXPECT_EQ(study.best.per_flow_drop.size(), 12U);
  EXPECT_EQ(study.worst.per_flow_drop.size(), 12U);
}

TEST_F(PlacementTest, PlacementVectorsAreBalanced) {
  const PlacementStudy study = eval_.evaluate(combo(FlowType::kMon, FlowType::kFw));
  for (const auto* outcome : {&study.best, &study.worst}) {
    int socket0 = 0;
    for (const int s : outcome->socket_of_flow) socket0 += s == 0 ? 1 : 0;
    EXPECT_EQ(socket0, 6);
  }
}

TEST_F(PlacementTest, SensitiveAggressiveMixPrefersSpreading) {
  // For the paper's 6 MON + 6 FW combination, the worst placement packs all
  // MONs on one socket; the best spreads them (Section 5, Figure 10b).
  const PlacementStudy study = eval_.evaluate(combo(FlowType::kMon, FlowType::kFw));
  int worst_mon_socket0 = 0;
  for (int i = 0; i < 6; ++i) {
    worst_mon_socket0 += study.worst.socket_of_flow[static_cast<std::size_t>(i)] == 0 ? 1 : 0;
  }
  // Worst = segregated (all 6 MON together on either socket).
  EXPECT_TRUE(worst_mon_socket0 == 6 || worst_mon_socket0 == 0)
      << "worst placement should segregate the MON flows, got " << worst_mon_socket0;
}

}  // namespace
}  // namespace pp::core

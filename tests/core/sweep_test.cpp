#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include "common/fixtures.hpp"

namespace pp::core {
namespace {

TEST(SweepCurve, InterpolatesLinearly) {
  SweepCurve c;
  c.add(100e6, 30.0);
  c.add(50e6, 20.0);
  c.finalize();  // sorts
  EXPECT_NEAR(c.drop_at(75e6), 25.0, 1e-9);
  EXPECT_NEAR(c.drop_at(50e6), 20.0, 1e-9);
}

TEST(SweepCurve, ClampsAboveRange) {
  SweepCurve c;
  c.add(50e6, 20.0);
  c.add(100e6, 30.0);
  c.finalize();
  EXPECT_NEAR(c.drop_at(500e6), 30.0, 1e-9);
}

TEST(SweepCurve, InterpolatesTowardZeroBelowRange) {
  SweepCurve c;
  c.add(50e6, 20.0);
  c.add(100e6, 30.0);
  c.finalize();
  EXPECT_NEAR(c.drop_at(25e6), 10.0, 1e-9);
  EXPECT_NEAR(c.drop_at(0), 0.0, 1e-9);
}

TEST(SweepCurve, SinglePointStillWorks) {
  SweepCurve c;
  c.add(80e6, 24.0);
  c.finalize();
  EXPECT_NEAR(c.drop_at(40e6), 12.0, 1e-9);
  EXPECT_NEAR(c.drop_at(200e6), 24.0, 1e-9);
}

TEST(SweepLevels, SchedulesEndWithSynMax) {
  for (const Scale s : {Scale::kQuick, Scale::kStandard, Scale::kFull}) {
    const auto levels = SweepProfiler::default_levels(s);
    ASSERT_GE(levels.size(), 3U);
    EXPECT_EQ(levels.back().instr, 0U);   // full-rate SYN closes the ramp
    EXPECT_EQ(levels.back().reads, 32U);
    // Aggressiveness must be non-decreasing: reads/instr ratio grows.
    for (std::size_t i = 1; i < levels.size(); ++i) {
      const double prev = static_cast<double>(levels[i - 1].reads) /
                          static_cast<double>(levels[i - 1].instr + 1);
      const double cur = static_cast<double>(levels[i].reads) /
                         static_cast<double>(levels[i].instr + 1);
      EXPECT_GE(cur, prev);
    }
  }
}

TEST(ContentionMode, Names) {
  EXPECT_STREQ(to_string(ContentionMode::kCacheOnly), "cache-only");
  EXPECT_STREQ(to_string(ContentionMode::kMemCtrlOnly), "memctrl-only");
  EXPECT_STREQ(to_string(ContentionMode::kBoth), "cache+memctrl");
}

// One real (tiny) sweep: drop should grow with competition and the curve
// should cover a widening refs/sec range. Uses minimal windows to stay fast.
TEST(SweepProfiler, DropGrowsWithCompetition) {
  Testbed tb(Scale::kQuick, 1);
  ProfileStore store;
  SoloProfiler solo(tb, 1, store, pp::test::kTestThreads);
  SweepProfiler sweep(solo, 5);
  const std::vector<SynParams> levels = {{1, 4000, 12}, {32, 0, 12}};
  const SweepResult r = sweep.sweep(FlowSpec::of(FlowType::kMon), ContentionMode::kBoth, levels);
  ASSERT_EQ(r.levels.size(), 2U);
  EXPECT_LT(r.levels[0].competing_refs_per_sec, r.levels[1].competing_refs_per_sec);
  EXPECT_LT(r.levels[0].drop_pct, r.levels[1].drop_pct);
  EXPECT_GT(r.levels[1].drop_pct, 10.0);  // SYN_MAX must hurt MON
  EXPECT_GT(r.levels[1].competing_refs_per_sec, 100e6);
}

TEST(SweepProfiler, CacheOnlyPlacementKeepsCompetitorDataRemote) {
  Testbed tb(Scale::kQuick, 1);
  ProfileStore store;
  SoloProfiler solo(tb, 1, store, pp::test::kTestThreads);
  SweepProfiler sweep(solo, 2);
  const SweepResult r =
      sweep.sweep(FlowSpec::of(FlowType::kFw), ContentionMode::kCacheOnly, {{8, 100, 12}});
  ASSERT_EQ(r.levels.size(), 1U);
  // The run completed and produced a finite drop measurement.
  EXPECT_GT(r.levels[0].competing_refs_per_sec, 0.0);
}

}  // namespace
}  // namespace pp::core

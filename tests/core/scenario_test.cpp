// The scenario value type and its content-addressed key: keys are a pure
// function of scenario content (machine config, sizes, flows, placement,
// windows, seed — nothing else), stable across processes and builds while
// kScenarioSchemaVersion stands, and sensitive to every field. The setup key
// drops exactly the run-only fields, and a setup group run through one store
// fan-out (one member prewarms, the rest restore its warm state) is
// bit-identical to each member run alone.
#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/fixtures.hpp"
#include "core/profile_store.hpp"

namespace pp::core {
namespace {

Scenario base_scenario() {
  Testbed tb = pp::test::quick_testbed();
  RunConfig cfg = tb.configure({FlowSpec::of(FlowType::kIp)});
  return Scenario::of(tb, cfg);
}

TEST(ScenarioKey, PureFunctionOfContent) {
  const Scenario a = base_scenario();
  const Scenario b = base_scenario();  // independently built, same content
  EXPECT_EQ(scenario_key(a), scenario_key(b));
  EXPECT_EQ(scenario_key(a).hex(), scenario_key(b).hex());
}

TEST(ScenarioKey, EveryFieldContributes) {
  const Scenario base = base_scenario();
  const ScenarioKey k = scenario_key(base);

  Scenario s = base;
  s.seed += 1;
  EXPECT_NE(scenario_key(s), k) << "seed";

  s = base;
  s.measure_ms += 0.5;
  EXPECT_NE(scenario_key(s), k) << "measure window";

  s = base;
  s.warmup_ms += 0.5;
  EXPECT_NE(scenario_key(s), k) << "warmup window";

  s = base;
  s.machine.fidelity = sim::SimFidelity::kSampled;
  EXPECT_NE(scenario_key(s), k) << "fidelity";

  s = base;
  s.machine.sample_seed += 1;
  EXPECT_NE(scenario_key(s), k) << "sample seed";

  s = base;
  s.machine.sample_period_max = 32;
  EXPECT_NE(scenario_key(s), k) << "adaptive period ceiling";

  s = base;
  s.flows[0].batch = 16;
  EXPECT_NE(scenario_key(s), k) << "flow batch";

  s = base;
  s.machine.l3.size_bytes *= 2;
  EXPECT_NE(scenario_key(s), k) << "cache geometry";

  s = base;
  s.sizes.prefixes += 1;
  EXPECT_NE(scenario_key(s), k) << "workload sizes";

  s = base;
  s.flows[0].seed += 1;
  EXPECT_NE(scenario_key(s), k) << "flow seed";

  s = base;
  s.flows[0].type = FlowType::kMon;
  EXPECT_NE(scenario_key(s), k) << "flow type";

  s = base;
  s.flows.push_back(FlowSpec::of(FlowType::kSyn));
  s.placement.push_back(FlowPlacement{1, -1});
  EXPECT_NE(scenario_key(s), k) << "flow count";

  s = base;
  s.placement[0].core = 3;
  EXPECT_NE(scenario_key(s), k) << "placement core";

  s = base;
  s.placement[0].data_domain = 1;
  EXPECT_NE(scenario_key(s), k) << "placement domain";
}

// Golden key: locks the canonical serialization across runs and builds. If
// this breaks, the key schema changed — bump kScenarioSchemaVersion (which
// legitimately moves this value exactly once) and update the constant.
TEST(ScenarioKey, GoldenValueStableAcrossRuns) {
  Scenario s;  // all defaults: paper machine, standard sizes
  s.flows.push_back(FlowSpec::of(FlowType::kMon, 7));
  s.placement.push_back(FlowPlacement{0, -1});
  s.warmup_ms = 2.0;
  s.measure_ms = 3.0;
  s.seed = 42;
  EXPECT_EQ(scenario_key(s).hex(), "ec0774ada0e377b2bb8f2fb5643c9c1f");
}

TEST(ScenarioKey, HexIs32LowercaseDigits) {
  const std::string h = scenario_key(base_scenario()).hex();
  ASSERT_EQ(h.size(), 32U);
  for (const char c : h) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

TEST(Scenario, DescribeSummarizesFlowMix) {
  Scenario s = base_scenario();
  s.flows = {FlowSpec::of(FlowType::kMon), FlowSpec::of(FlowType::kMon),
             FlowSpec::of(FlowType::kSyn)};
  s.placement = {FlowPlacement{0, -1}, FlowPlacement{1, -1}, FlowPlacement{2, -1}};
  s.seed = 9;
  EXPECT_EQ(describe(s), "2xMON+1xSYN seed=9 exact");
}

TEST(Scenario, RunIsDeterministic) {
  Scenario s = base_scenario();
  s.warmup_ms = 0.2;
  s.measure_ms = 0.4;
  const ScenarioResult a = run_scenario(s);
  const ScenarioResult b = run_scenario(s);
  ASSERT_EQ(a.size(), b.size());
  pp::test::expect_metrics_equal(a[0], b[0], "repeat run");
}

/// An IP target with one SYN competitor, so the SYN fields are in play.
Scenario syn_pair_scenario() {
  Testbed tb = pp::test::quick_testbed();
  RunConfig cfg = tb.configure({FlowSpec::of(FlowType::kIp),
                                FlowSpec::syn_flow(SynParams{2, 300, 12}, 2)});
  return Scenario::of(tb, cfg);
}

TEST(SetupKey, EveryFieldContributes) {
  const Scenario base = syn_pair_scenario();
  const ScenarioKey k = setup_key(base);

  // The run-only fields: equal setup keys, different scenario keys.
  Scenario s = base;
  s.flows[1].syn.reads += 6;
  EXPECT_EQ(setup_key(s), k) << "SYN reads";
  EXPECT_NE(scenario_key(s), scenario_key(base)) << "SYN reads";

  s = base;
  s.flows[1].syn.instr += 100;
  EXPECT_EQ(setup_key(s), k) << "SYN instr";
  EXPECT_NE(scenario_key(s), scenario_key(base)) << "SYN instr";

  s = base;
  s.warmup_ms += 0.5;
  EXPECT_EQ(setup_key(s), k) << "warmup window";

  s = base;
  s.measure_ms += 0.5;
  EXPECT_EQ(setup_key(s), k) << "measure window";

  // Everything else builds or warms a different machine.
  s = base;
  s.flows[1].syn.table_mb = 6;
  EXPECT_NE(setup_key(s), k) << "SYN table size";

  s = base;
  s.seed += 1;
  EXPECT_NE(setup_key(s), k) << "seed";

  s = base;
  s.machine.fidelity = sim::SimFidelity::kSampled;
  EXPECT_NE(setup_key(s), k) << "fidelity";

  s = base;
  s.machine.sample_seed += 1;
  EXPECT_NE(setup_key(s), k) << "sample seed";

  s = base;
  s.machine.sample_period_max = 32;
  EXPECT_NE(setup_key(s), k) << "adaptive period ceiling";

  s = base;
  s.flows[0].batch = 16;
  EXPECT_NE(setup_key(s), k) << "flow batch";

  s = base;
  s.machine.l3.size_bytes *= 2;
  EXPECT_NE(setup_key(s), k) << "cache geometry";

  s = base;
  s.sizes.prefixes += 1;
  EXPECT_NE(setup_key(s), k) << "workload sizes";

  s = base;
  s.flows[0].seed += 1;
  EXPECT_NE(setup_key(s), k) << "flow seed";

  s = base;
  s.flows[1].seed += 1;
  EXPECT_NE(setup_key(s), k) << "SYN flow seed";

  s = base;
  s.flows[0].type = FlowType::kMon;
  EXPECT_NE(setup_key(s), k) << "flow type";

  s = base;
  s.flows.push_back(FlowSpec::of(FlowType::kSyn));
  s.placement.push_back(FlowPlacement{2, -1});
  EXPECT_NE(setup_key(s), k) << "flow count";

  s = base;
  s.placement[0].core = 3;
  EXPECT_NE(setup_key(s), k) << "placement core";

  s = base;
  s.placement[1].data_domain = 1;
  EXPECT_NE(setup_key(s), k) << "placement domain";
}

void expect_results_equal(const ScenarioResult& want, const ScenarioResult& got,
                          const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t f = 0; f < want.size(); ++f) {
    const std::string flow = what + " flow " + std::to_string(f);
    EXPECT_EQ(want[f].type, got[f].type) << flow;
    EXPECT_EQ(want[f].core, got[f].core) << flow;
    pp::test::expect_metrics_equal(want[f], got[f], flow.c_str());
    ASSERT_EQ(want[f].elements.size(), got[f].elements.size()) << flow;
    for (std::size_t e = 0; e < want[f].elements.size(); ++e) {
      const std::string elem = flow + " element " + want[f].elements[e].name;
      EXPECT_EQ(want[f].elements[e].name, got[f].elements[e].name) << elem;
      EXPECT_EQ(want[f].elements[e].cls, got[f].elements[e].cls) << elem;
      pp::test::expect_counters_equal(want[f].elements[e].delta, got[f].elements[e].delta,
                                      elem.c_str());
    }
  }
}

TEST(SetupGroups, FanOutRestoresAreBitIdenticalToStandaloneRuns) {
  // Two 5-level sweep groups (an FW target and a SYN target, each against
  // five SYN competitors): in one fan-out each group prewarms once and its
  // four other levels restore that warm state. Every level must equal the
  // same scenario run alone, counter for counter, in every tier and at any
  // thread count.
  for (const sim::SimFidelity f :
       {sim::SimFidelity::kExact, sim::SimFidelity::kSampled, sim::SimFidelity::kStreamed}) {
    pp::test::ProfilerRig rig(f);
    std::vector<Scenario> jobs;
    for (const FlowSpec& target : {FlowSpec::of(FlowType::kFw), FlowSpec::of(FlowType::kSyn)}) {
      for (const SynParams& level : SweepProfiler::default_levels(Scale::kQuick)) {
        Scenario s = rig.sweep.level_scenario(target, ContentionMode::kBoth, level, 0);
        s.warmup_ms = 0.2;
        s.measure_ms = 0.3;
        jobs.push_back(s);
      }
    }
    ASSERT_EQ(setup_key(jobs[0]), setup_key(jobs[4]));
    ASSERT_NE(setup_key(jobs[0]), setup_key(jobs[5]));
    std::vector<ScenarioResult> alone;
    for (const Scenario& s : jobs) alone.push_back(run_scenario(s));

    for (const int threads : {1, 4}) {
      const std::string what = std::string(to_string(f)) + " threads=" + std::to_string(threads);
      ProfileStore store;
      const auto runs = store.get_or_run_many(jobs, threads);
      EXPECT_EQ(store.stats().simulated, jobs.size()) << what;
      EXPECT_EQ(store.stats().prewarm_shared, 8U) << what;
      EXPECT_EQ(SetupShare::live_snapshots(), 0) << what;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        expect_results_equal(alone[j], *runs[j], what + " job " + std::to_string(j));
      }
    }
  }
}

TEST(SetupShare, FailedProducerPublishesNothingAndFollowersWarmThemselves) {
  Scenario a = syn_pair_scenario();
  Scenario b = a;
  b.flows[1].syn.reads += 6;
  ASSERT_EQ(setup_key(a), setup_key(b));
  sim::Machine ma(a.machine);
  sim::Machine mb(b.machine);
  {
    SetupShare share({&a, &b});
    EXPECT_TRUE(share.leads(0));
    EXPECT_FALSE(share.leads(1));
    std::atomic<bool> follower_started{false};
    std::atomic<bool> follower_prewarmed{false};
    std::thread follower;
    EXPECT_THROW(share.warm(0, ma,
                            [&] {
                              // Fail while the follower is (most likely)
                              // already waiting on this producer.
                              follower = std::thread([&] {
                                follower_started = true;
                                share.warm(1, mb, [&] { follower_prewarmed = true; });
                              });
                              while (!follower_started) std::this_thread::yield();
                              std::this_thread::sleep_for(std::chrono::milliseconds(20));
                              throw std::runtime_error("prewarm failed");
                            }),
                 std::runtime_error);
    if (follower.joinable()) follower.join();
    EXPECT_TRUE(follower_prewarmed);
    EXPECT_EQ(share.restores(), 0U);
  }
  EXPECT_EQ(SetupShare::live_snapshots(), 0);
}

TEST(SetupShare, UngroupedAndLoneMembersJustPrewarm) {
  Scenario a = syn_pair_scenario();
  Scenario b = a;
  b.seed += 1;  // a different setup
  SetupShare share({&a, nullptr, &b});
  EXPECT_FALSE(share.leads(0));
  EXPECT_FALSE(share.leads(1));
  EXPECT_FALSE(share.leads(2));
  sim::Machine m(a.machine);
  int prewarms = 0;
  share.warm(0, m, [&] { ++prewarms; });
  share.warm(2, m, [&] { ++prewarms; });
  EXPECT_EQ(prewarms, 2);
  EXPECT_EQ(share.restores(), 0U);
  EXPECT_EQ(SetupShare::live_snapshots(), 0);
}

}  // namespace
}  // namespace pp::core

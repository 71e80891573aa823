// api::Session error isolation: failed specs come back as structured
// Result::error values — never an abort, never a poisoned batch. Covers the
// run-budget guard, injected scenario faults, invalid specs, repeated
// failing specs, serialization of errors, and thread-count invariance.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>

#include "base/fault.hpp"
#include "core/profile_store.hpp"

namespace pp::api {
namespace {

using core::FlowSpec;
using core::FlowType;

SessionOptions test_options(int threads = 1) {
  return SessionOptions{}.with_scale(Scale::kQuick).with_threads(threads);
}

ExperimentSpec tiny_corun(FlowType a, FlowType b, std::uint64_t seed = 1) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kCorun;
  spec.flows = {FlowSpec::of(a), FlowSpec::of(b, 2)};
  spec.seed = seed;
  spec.warmup_ms = 0.2;
  spec.measure_ms = 0.4;
  return spec;
}

/// A spec that deterministically exceeds its run budget: the windows sum to
/// 0.6 ms of simulated time against a 0.1 ms budget.
ExperimentSpec over_budget_spec() {
  ExperimentSpec spec = tiny_corun(FlowType::kIp, FlowType::kVpn, 42);
  spec.budget_ms = 0.1;
  return spec;
}

TEST(SessionError, EmptyFlowsIsAStructuredErrorNotAnAbort) {
  core::ProfileStore store;
  Session session(test_options(), &store);
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kCorun;
  const Result r = session.run(spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->kind, StatusKind::kInvalidSpec);
  EXPECT_EQ(r.error->site, "session.run");
  EXPECT_TRUE(r.flows.empty());
  EXPECT_EQ(store.stats().simulated, 0U);
}

TEST(SessionError, ArtifactSpecIsAStructuredError) {
  // Parse rejects unknown artifact names; a hand-built spec must still fail
  // structurally, naming the bad artifact.
  core::ProfileStore store;
  Session session(test_options(), &store);
  ExperimentSpec spec;
  spec.artifact = "fig9000";
  const Result r = session.run(spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->kind, StatusKind::kInvalidSpec);
  EXPECT_NE(r.error->detail.find("fig9000"), std::string::npos) << r.error->detail;
  EXPECT_TRUE(r.artifact_text.empty());
}

TEST(SessionError, Table1ArtifactMatchesTheGoldenBytes) {
  // tests/golden/artifacts/ holds each artifact's text as the per-figure
  // binaries printed it; Session::run must reproduce it byte for byte.
  std::ifstream in(std::string(PP_SOURCE_DIR) + "/tests/golden/artifacts/table1.quick.txt",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream golden;
  golden << in.rdbuf();

  core::ProfileStore store;
  Session session(test_options(2), &store);
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kSolo;
  spec.artifact = "table1";
  const Result r = session.run(spec);
  ASSERT_TRUE(r.ok()) << r.error->detail;
  EXPECT_EQ(r.artifact_text, golden.str());
  EXPECT_EQ(render_result(r, "json"), golden.str()) << "artifact bytes ignore the format";
}

TEST(SessionError, AblationArtifactsHonorAnExpiredDeadline) {
  // numa runs through the store; pipeline and throttle drive their own
  // machines, so they must apply the same guards themselves.
  for (const char* name : {"numa", "pipeline", "throttle"}) {
    core::ProfileStore store;
    SessionOptions opts = test_options();
    opts.wall_deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
    Session session(opts, &store);
    ExperimentSpec spec;
    spec.artifact = name;
    const Result r = session.run(spec);
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.error->kind, StatusKind::kBudgetExceeded) << name;
    EXPECT_EQ(r.error->site, "scenario.deadline") << name;
    EXPECT_TRUE(r.artifact_text.empty()) << name;
    EXPECT_EQ(store.stats().simulated, 0U) << name;
  }
}

TEST(SessionError, AblationArtifactsHonorTheRunBudget) {
  for (const char* name : {"numa", "pipeline", "throttle"}) {
    core::ProfileStore store;
    SessionOptions opts = test_options();
    opts.run_budget_ms = 1;
    Session session(opts, &store);
    ExperimentSpec spec;
    spec.artifact = name;
    const Result r = session.run(spec);
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.error->kind, StatusKind::kBudgetExceeded) << name;
    EXPECT_EQ(r.error->site, "scenario.run") << name;
    EXPECT_TRUE(r.artifact_text.empty()) << name;
  }
}

TEST(SessionError, BudgetExceededIsNamedAndCarriesTheNumbers) {
  core::ProfileStore store;
  Session session(test_options(), &store);
  const Result r = session.run(over_budget_spec());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->kind, StatusKind::kBudgetExceeded);
  EXPECT_EQ(r.error->site, "scenario.run");
  EXPECT_NE(r.error->detail.find("budget"), std::string::npos);
  EXPECT_TRUE(r.flows.empty()) << "a failed result must not be half-filled";
  EXPECT_EQ(store.stats().simulated, 0U) << "the budget guard runs before any work";
}

TEST(SessionError, GenerousBudgetIsBitIdenticalToNoBudget) {
  // The budget is an execution guard, not content: it must not enter the
  // scenario key or perturb results.
  core::ProfileStore store_a;
  Session a(test_options(), &store_a);
  const Result plain = a.run(tiny_corun(FlowType::kIp, FlowType::kMon));

  core::ProfileStore store_b;
  Session b(test_options(), &store_b);
  ExperimentSpec budgeted = tiny_corun(FlowType::kIp, FlowType::kMon);
  budgeted.budget_ms = 9999.0;
  const Result r = b.run(budgeted);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(plain.to_json(), r.to_json());
}

TEST(SessionError, OnePoisonedSpecLeavesTheRestBitIdentical) {
  const std::vector<ExperimentSpec> good = {tiny_corun(FlowType::kIp, FlowType::kMon, 1),
                                            tiny_corun(FlowType::kMon, FlowType::kVpn, 2),
                                            tiny_corun(FlowType::kVpn, FlowType::kIp, 3)};

  // Reference: the good specs alone, serial, fresh store.
  core::ProfileStore ref_store;
  Session ref(test_options(1), &ref_store);
  const std::vector<Result> ref_results = ref.run_many(good);

  // 1 poisoned + 3 good, parallel.
  std::vector<ExperimentSpec> batch = {good[0], over_budget_spec(), good[1], good[2]};
  core::ProfileStore store;
  Session session(test_options(4), &store);
  const std::vector<Result> results = session.run_many(batch);
  ASSERT_EQ(results.size(), 4U);

  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_TRUE(results[3].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].error->kind, StatusKind::kBudgetExceeded);

  EXPECT_EQ(results[0].to_json(), ref_results[0].to_json());
  EXPECT_EQ(results[2].to_json(), ref_results[1].to_json());
  EXPECT_EQ(results[3].to_json(), ref_results[2].to_json());
}

TEST(SessionError, FailingDuplicatesFailIdenticallyAndSimulateNothing) {
  core::ProfileStore store;
  Session session(test_options(2), &store);
  const std::vector<ExperimentSpec> batch = {over_budget_spec(), over_budget_spec()};
  const std::vector<Result> results = session.run_many(batch);
  ASSERT_EQ(results.size(), 2U);
  for (const Result& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error->kind, StatusKind::kBudgetExceeded);
  }
  for (const char* format : {"text", "csv", "json"}) {
    EXPECT_EQ(render_result(results[0], format), render_result(results[1], format)) << format;
  }
  EXPECT_EQ(store.stats().simulated, 0U) << "a failed run stores nothing";
}

TEST(SessionError, ErrorAttributionIsThreadCountInvariant) {
  std::vector<ExperimentSpec> batch = {tiny_corun(FlowType::kIp, FlowType::kMon, 1),
                                       over_budget_spec(),
                                       tiny_corun(FlowType::kMon, FlowType::kVpn, 2),
                                       over_budget_spec()};
  core::ProfileStore store1;
  Session serial(test_options(1), &store1);
  const std::vector<Result> a = serial.run_many(batch);

  core::ProfileStore store4;
  Session parallel(test_options(4), &store4);
  const std::vector<Result> b = parallel.run_many(batch);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].to_json(), b[i].to_json()) << "result " << i;
  }
}

TEST(SessionError, InjectedScenarioFaultBecomesAStructuredError) {
  std::string err;
  ASSERT_TRUE(FaultInjector::global().configure("scenario.run:fail@1.0", &err)) << err;
  core::ProfileStore store;
  Session session(test_options(), &store);
  const Result r = session.run(tiny_corun(FlowType::kIp, FlowType::kMon));
  FaultInjector::global().reset();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->kind, StatusKind::kFaultInjected);
  EXPECT_EQ(r.error->site, "scenario.run");
}

TEST(SessionError, ErrorSerializesToAllThreeFormats) {
  core::ProfileStore store;
  Session session(test_options(), &store);
  const Result r = session.run(over_budget_spec());
  ASSERT_FALSE(r.ok());

  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"error\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"budget_exceeded\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"site\": \"scenario.run\""), std::string::npos) << json;

  EXPECT_NE(r.to_text().find("ERROR budget_exceeded at scenario.run"), std::string::npos);
  EXPECT_NE(r.to_csv().find("error"), std::string::npos);
}

}  // namespace
}  // namespace pp::api

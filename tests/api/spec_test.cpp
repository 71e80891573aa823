// The declarative spec layer: canonical JSON round-trips, strict rejection
// of malformed/unknown input, and — the content-key contract — lowering a
// spec yields exactly the scenarios (and therefore ProfileStore keys) the
// C++ profiling path produces, locked by a golden key.
#include "api/spec.hpp"

#include <gtest/gtest.h>

#include "api/artifacts.hpp"
#include "api/session.hpp"
#include "base/strings.hpp"
#include "core/profiler.hpp"

namespace pp::api {
namespace {

using core::FlowPlacement;
using core::FlowSpec;
using core::FlowType;

ExperimentSpec full_spec() {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kCorun;
  spec.name = "round trip \"quoted\"";
  spec.scale = Scale::kQuick;
  spec.fidelity = sim::SimFidelity::kSampled;
  spec.sample_period_max = 16;
  spec.seeds = 2;
  spec.seed = 7;
  spec.warmup_ms = 1.0;
  spec.measure_ms = 2.5;
  spec.flows.push_back(FlowSpec::of(FlowType::kMon));
  FlowSpec syn = FlowSpec::syn_flow(core::SynParams{8, 100, 12}, 3);
  syn.batch = 4;
  spec.flows.push_back(syn);
  spec.placement.push_back(FlowPlacement{0, -1});
  spec.placement.push_back(FlowPlacement{1, 1});
  return spec;
}

TEST(ExperimentSpec, JsonRoundTripPreservesEveryField) {
  const ExperimentSpec spec = full_spec();
  const std::string text = spec.to_json();
  std::string err;
  const std::optional<ExperimentSpec> parsed = ExperimentSpec::parse(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(spec, *parsed);
  // Canonical: re-serialization is byte-identical (run_many dedups on this).
  EXPECT_EQ(text, parsed->to_json());
}

TEST(ExperimentSpec, ArtifactSpecRoundTrips) {
  // `ppctl show` reprints specs canonically; that output must re-parse —
  // including for artifact specs, which carry no flows.
  std::string err;
  const auto spec = ExperimentSpec::parse(
      R"({"version": 1, "kind": "sweep", "name": "fig4", "artifact": "fig4",
          "scale": "quick"})",
      &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const std::optional<ExperimentSpec> again = ExperimentSpec::parse(spec->to_json(), &err);
  ASSERT_TRUE(again.has_value()) << "canonical artifact form must re-parse: " << err;
  EXPECT_EQ(*spec, *again);
}

TEST(ExperimentSpec, ControlCharactersInNamesRoundTrip) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kSolo;
  spec.name = std::string("weird\x01name\x1b");
  spec.flows.push_back(FlowSpec::of(FlowType::kIp));
  std::string err;
  const std::optional<ExperimentSpec> parsed = ExperimentSpec::parse(spec.to_json(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(spec.name, parsed->name);
}

TEST(ExperimentSpec, ExplicitSoloSeedChangesTheScenario) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kSolo;
  spec.flows = {FlowSpec::of(FlowType::kIp)};

  core::ProfileStore store;
  ViewStack stack(SessionOptions{}.with_scale(Scale::kQuick), 1, store);
  const auto default_key = core::scenario_key(lower_spec(spec, stack.tb)[0]);
  spec.seed = 5;
  const auto seed5_key = core::scenario_key(lower_spec(spec, stack.tb)[0]);
  spec.seed = 9;
  const auto seed9_key = core::scenario_key(lower_spec(spec, stack.tb)[0]);
  EXPECT_NE(seed5_key.hex(), default_key.hex());
  EXPECT_NE(seed5_key.hex(), seed9_key.hex());
}

TEST(ExperimentSpec, MinimalSpecParsesWithDefaults) {
  std::string err;
  const auto spec = ExperimentSpec::parse(
      R"({"version": 1, "kind": "solo", "flows": [{"type": "IP"}]})", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_EQ(spec->kind, ExperimentKind::kSolo);
  EXPECT_FALSE(spec->scale.has_value());
  EXPECT_FALSE(spec->fidelity.has_value());
  EXPECT_EQ(spec->seeds, 0);
  EXPECT_EQ(spec->seed, 0U);
  ASSERT_EQ(spec->flows.size(), 1U);
  EXPECT_EQ(spec->flows[0].type, FlowType::kIp);
  EXPECT_EQ(spec->flows[0].batch, 1);
}

TEST(ExperimentSpec, RejectsBadInput) {
  const struct {
    const char* json;
    const char* why;
  } cases[] = {
      {R"({"kind": "solo", "flows": [{"type": "IP"}]})", "missing version"},
      {R"({"version": 2, "kind": "solo", "flows": [{"type": "IP"}]})", "future version"},
      {R"({"version": 1, "flows": [{"type": "IP"}]})", "missing kind"},
      {R"({"version": 1, "kind": "frobnicate", "flows": [{"type": "IP"}]})", "bad kind"},
      {R"({"version": 1, "kind": "solo"})", "missing flows"},
      {R"({"version": 1, "kind": "solo", "flows": []})", "empty flows"},
      {R"({"version": 1, "kind": "solo", "flows": [{"type": "QUIC"}]})", "bad flow type"},
      {R"({"version": 1, "kind": "solo", "flows": [{"type": "IP", "bogus": 1}]})",
       "unknown flow field"},
      {R"({"version": 1, "kind": "solo", "flows": [{"type": "IP"}], "extra": true})",
       "unknown spec field"},
      {R"({"version": 1, "kind": "solo", "flows": [{"type": "IP", "batch": 1000}]})",
       "batch beyond kMaxBatch"},
      {R"({"version": 1, "kind": "solo", "scale": "huge", "flows": [{"type": "IP"}]})",
       "bad scale"},
      {R"({"version": 1, "kind": "solo", "fidelity": "streamd", "flows": [{"type": "IP"}]})",
       "typo'd fidelity"},
      {R"({"version": 1, "kind": "solo", "sample_period_max": 12, "flows": [{"type": "IP"}]})",
       "non-power-of-two period"},
      {R"({"version": 1, "kind": "solo", "sample_period_max": 4, "flows": [{"type": "IP"}]})",
       "period ceiling below the base period 8"},
      {R"({"version": 1, "kind": "corun", "flows": [{"type": "IP"}],
           "placement": [{"core": 0}, {"core": 1}]})",
       "placement not parallel to flows"},
      {R"({"version": 1, "kind": "corun", "flows": [{"type": "IP"}],
           "placement": [{"core": 12}]})",
       "core beyond the machine"},
      {R"({"version": 1, "kind": "solo", "flows": [{"type": "IP"}],
           "placement": [{"core": 0}]})",
       "placement on a solo spec"},
      {R"({"version": 1, "kind": "corun", "mode": "both", "flows": [{"type": "IP"}]})",
       "mode outside sweep"},
      {R"({"version": 1, "kind": "sweep", "seed": 5, "flows": [{"type": "IP"}]})",
       "seed outside solo/corun"},
      {R"({"version": 1, "kind": "sweep", "measure_ms": 1.0, "flows": [{"type": "IP"}]})",
       "windows outside solo/corun"},
      {R"({"version": 1, "kind": "placement_search", "flows": [{"type": "IP"}]})",
       "placement_search without 12 flows"},
      {R"({"version": 1, "kind": "solo", "artifact": "fig9000"})", "unknown artifact"},
      {R"({"version": 1, "kind": "solo", "artifact": "fig4", "flows": [{"type": "IP"}]})",
       "artifact with generic fields"},
      {R"({"version": 1, "version": 1, "kind": "solo", "flows": [{"type": "IP"}]})",
       "duplicate JSON key"},
      {R"({"version": 1, "kind": "solo", "flows": [{"type": "IP"}]} trailing)",
       "trailing garbage"},
      {R"({"version": 01, "kind": "solo", "flows": [{"type": "IP"}]})",
       "leading zero (invalid JSON number)"},
      {"not json at all", "not JSON"},
  };
  for (const auto& c : cases) {
    std::string err;
    EXPECT_FALSE(ExperimentSpec::parse(c.json, &err).has_value()) << c.why;
    EXPECT_FALSE(err.empty()) << c.why;
  }
}

TEST(ExperimentSpec, UnknownArtifactErrorListsEveryArtifact) {
  std::string err;
  EXPECT_FALSE(
      ExperimentSpec::parse(R"({"version": 1, "kind": "solo", "artifact": "fig9000"})", &err)
          .has_value());
  EXPECT_NE(err.find("(known: table1, fig2, fig4, fig5, fig6, fig7, fig8, fig9, fig10, numa, "
                     "pipeline, throttle)"),
            std::string::npos)
      << err;
  ASSERT_EQ(artifacts().size(), 12U);
  for (const Artifact& a : artifacts()) {
    EXPECT_NE(err.find(a.name), std::string::npos) << a.name;
    std::string why;
    EXPECT_TRUE(ExperimentSpec::parse(
                    strformat(R"({"version": 1, "kind": "solo", "artifact": "%s"})", a.name), &why)
                    .has_value())
        << a.name << ": " << why;
  }
}

TEST(ExperimentSpec, ParseErrorsNameTheProblem) {
  std::string err;
  (void)ExperimentSpec::parse(
      R"({"version": 1, "kind": "solo", "flows": [{"type": "IP", "bogus": 1}]})", &err);
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
  (void)ExperimentSpec::parse(
      R"({"version": 99, "kind": "solo", "flows": [{"type": "IP"}]})", &err);
  EXPECT_NE(err.find("version"), std::string::npos) << err;
}

// The content-key contract. The golden hex locks the spec->Scenario->key
// pipeline across sessions: if it moves without a deliberate
// kScenarioSchemaVersion (or spec semantics) change, cached profiles would
// silently stop matching the specs that produced them.
TEST(ExperimentSpec, CorunLoweringMatchesCxxPathAndGoldenKey) {
  std::string err;
  const auto spec = ExperimentSpec::parse(R"({
    "version": 1,
    "kind": "corun",
    "scale": "quick",
    "fidelity": "exact",
    "seed": 7,
    "warmup_ms": 1.0,
    "measure_ms": 2.0,
    "flows": [
      {"type": "MON"},
      {"type": "SYN", "reads": 8, "instr": 100, "table_mb": 12, "seed": 2}
    ],
    "placement": [
      {"core": 0, "data_domain": -1},
      {"core": 1, "data_domain": 0}
    ]
  })", &err);
  ASSERT_TRUE(spec.has_value()) << err;

  core::ProfileStore store;
  const SessionOptions opts =
      SessionOptions{}.with_scale(Scale::kQuick).with_fidelity(sim::SimFidelity::kExact);
  ViewStack stack(opts, /*seeds=*/1, store);
  const std::vector<core::Scenario> lowered = lower_spec(*spec, stack.tb);
  ASSERT_EQ(lowered.size(), 1U);

  // The C++ path: what a bench binary writing this experiment by hand
  // produces.
  core::RunConfig cfg = stack.tb.configure(
      {FlowSpec::of(FlowType::kMon), FlowSpec::syn_flow(core::SynParams{8, 100, 12}, 2)}, 7);
  cfg.placement = {FlowPlacement{0, -1}, FlowPlacement{1, 0}};
  cfg.warmup_ms = 1.0;
  cfg.measure_ms = 2.0;
  const core::ScenarioKey manual = core::scenario_key(core::Scenario::of(stack.tb, cfg));

  EXPECT_EQ(core::scenario_key(lowered[0]), manual);
  EXPECT_EQ(core::scenario_key(lowered[0]).hex(), "92f5489c50254a5c3307d855917c76b0");
}

TEST(ExperimentSpec, SoloLoweringMatchesSoloProfilerPlan) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kSolo;
  spec.seeds = 3;
  spec.flows = {FlowSpec::of(FlowType::kIp), FlowSpec::of(FlowType::kVpn)};

  core::ProfileStore store;
  ViewStack stack(SessionOptions{}.with_scale(Scale::kQuick), /*seeds=*/3, store);
  const std::vector<core::Scenario> lowered = lower_spec(spec, stack.tb);
  ASSERT_EQ(lowered.size(), 6U);

  std::size_t i = 0;
  for (const FlowSpec& f : spec.flows) {
    for (const core::Scenario& planned : stack.solo.plan(f)) {
      EXPECT_EQ(core::scenario_key(lowered[i]), core::scenario_key(planned))
          << "flow " << core::to_string(f.type) << " seed slot " << i;
      ++i;
    }
  }
}

TEST(ExperimentSpec, SpecOverridesReachTheMachineConfig) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kCorun;
  spec.fidelity = sim::SimFidelity::kStreamed;
  spec.flows = {FlowSpec::of(FlowType::kMon)};

  const SessionOptions opts = apply_spec(spec, SessionOptions{}.with_scale(Scale::kQuick));
  core::ProfileStore store;
  ViewStack stack(opts, 1, store);
  EXPECT_EQ(stack.tb.machine_config().fidelity, sim::SimFidelity::kStreamed);
  // The streamed tier's default adaptive ceiling (16) applies.
  EXPECT_EQ(stack.tb.machine_config().sample_period_max, 16U);

  const std::vector<core::Scenario> lowered = lower_spec(spec, stack.tb);
  EXPECT_EQ(lowered[0].machine.fidelity, sim::SimFidelity::kStreamed);

  // Fidelity is part of the content key: the same spec at exact fidelity
  // must key differently.
  ViewStack exact(SessionOptions{}.with_scale(Scale::kQuick), 1, store);
  const auto exact_key = core::scenario_key(lower_spec(spec, exact.tb)[0]);
  EXPECT_NE(core::scenario_key(lowered[0]).hex(), exact_key.hex());
}

}  // namespace
}  // namespace pp::api

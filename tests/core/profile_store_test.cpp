// The content-addressed ProfileStore: single-flight dedup under
// parallel_for, repeated keys collapsing inside one fan-out, disk-cache
// round-trips that are bit-identical (exact and sampled fidelity), and
// invalidation when the schema version bumps.
#include "core/profile_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/status.hpp"
#include "base/strings.hpp"
#include "core/parallel.hpp"

namespace pp::core {
namespace {

/// A cheap scenario (sub-millisecond windows) for store mechanics tests.
Scenario tiny_scenario(sim::SimFidelity fidelity = sim::SimFidelity::kExact,
                       std::uint64_t seed = 1) {
  Testbed tb(Scale::kQuick, 1);
  tb.machine_config().fidelity = fidelity;
  RunConfig cfg = tb.configure({FlowSpec::of(FlowType::kMon)}, seed);
  cfg.warmup_ms = 0.2;
  cfg.measure_ms = 0.4;
  return Scenario::of(tb, cfg);
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "pp_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a[i].type), static_cast<int>(b[i].type));
    EXPECT_EQ(a[i].core, b[i].core);
    EXPECT_EQ(a[i].seconds, b[i].seconds);  // bit-exact double round-trip
    EXPECT_EQ(a[i].delta.packets, b[i].delta.packets);
    EXPECT_EQ(a[i].delta.cycles, b[i].delta.cycles);
    EXPECT_EQ(a[i].delta.instructions, b[i].delta.instructions);
    EXPECT_EQ(a[i].delta.l1_hits, b[i].delta.l1_hits);
    EXPECT_EQ(a[i].delta.l2_hits, b[i].delta.l2_hits);
    EXPECT_EQ(a[i].delta.l3_refs, b[i].delta.l3_refs);
    EXPECT_EQ(a[i].delta.l3_misses, b[i].delta.l3_misses);
    EXPECT_EQ(a[i].delta.mc_queue_cycles, b[i].delta.mc_queue_cycles);
    EXPECT_EQ(a[i].delta.qpi_queue_cycles, b[i].delta.qpi_queue_cycles);
    ASSERT_EQ(a[i].elements.size(), b[i].elements.size());
    for (std::size_t e = 0; e < a[i].elements.size(); ++e) {
      EXPECT_EQ(a[i].elements[e].name, b[i].elements[e].name);
      EXPECT_EQ(a[i].elements[e].cls, b[i].elements[e].cls);
      EXPECT_EQ(a[i].elements[e].delta.cycles, b[i].elements[e].delta.cycles);
      EXPECT_EQ(a[i].elements[e].delta.l3_refs, b[i].elements[e].delta.l3_refs);
      EXPECT_EQ(a[i].elements[e].delta.l3_misses, b[i].elements[e].delta.l3_misses);
    }
  }
}

TEST(ProfileStore, SingleFlightDedupUnderParallelFor) {
  ProfileStore store;
  const Scenario s = tiny_scenario();
  constexpr std::size_t kCallers = 8;
  std::vector<std::shared_ptr<const ScenarioResult>> results(kCallers);
  parallel_for(kCallers, 4, [&](std::size_t i) { results[i] = store.get_or_run(s); });
  const ProfileStore::Stats st = store.stats();
  EXPECT_EQ(st.simulated, 1U) << "identical concurrent requests must coalesce";
  EXPECT_EQ(st.memory_hits + st.coalesced, kCallers - 1);
  for (std::size_t i = 1; i < kCallers; ++i) {
    EXPECT_EQ(results[0].get(), results[i].get());  // one shared result object
  }
}

TEST(ProfileStore, GetOrRunManyDedupesDuplicates) {
  // A key repeated inside one cold fan-out runs once; its later slots share
  // the first slot's pointer without counting as memory hits or coalesced
  // waits (no pool thread parks on a sibling slot).
  const std::vector<Scenario> jobs = {tiny_scenario(sim::SimFidelity::kExact, 1),
                                      tiny_scenario(sim::SimFidelity::kExact, 2),
                                      tiny_scenario(sim::SimFidelity::kExact, 1),
                                      tiny_scenario(sim::SimFidelity::kExact, 2),
                                      tiny_scenario(sim::SimFidelity::kExact, 1)};
  for (const int threads : {1, 4}) {
    ProfileStore store;
    const auto results = store.get_or_run_many(jobs, threads);
    const ProfileStore::Stats st = store.stats();
    EXPECT_EQ(st.simulated, 2U) << "threads=" << threads;
    EXPECT_EQ(st.memory_hits + st.coalesced, 0U) << "threads=" << threads;
    ASSERT_EQ(results.size(), jobs.size());
    EXPECT_EQ(results[0].get(), results[2].get());
    EXPECT_EQ(results[0].get(), results[4].get());
    EXPECT_EQ(results[1].get(), results[3].get());
    EXPECT_NE(results[0].get(), results[1].get());
  }

  // A failing key repeated in the list: the lowest-index error surfaces
  // (the heavier, later failure is dispatched first), and the repeat never
  // runs again.
  const auto over_budget = [](std::vector<FlowSpec> flows, std::uint64_t seed, double budget) {
    Testbed tb(Scale::kQuick, 1);
    RunConfig cfg = tb.configure(std::move(flows), seed);
    cfg.warmup_ms = 0.2;
    cfg.measure_ms = 0.4;
    cfg.budget_ms = budget;
    return Scenario::of(tb, cfg);
  };
  const FlowSpec mon = FlowSpec::of(FlowType::kMon);
  const std::vector<Scenario> failing = {jobs[0], over_budget({mon}, 2, 0.5),
                                         over_budget({mon, mon}, 4, 0.25),
                                         over_budget({mon}, 2, 0.5)};
  for (const int threads : {1, 4}) {
    ProfileStore store;
    try {
      (void)store.get_or_run_many(failing, threads);
      ADD_FAILURE() << "a list with failing slots must throw (threads=" << threads << ")";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().kind, StatusKind::kBudgetExceeded);
      EXPECT_NE(e.status().detail.find("run budget 0.500 ms"), std::string::npos)
          << "threads=" << threads << ": " << e.status().detail;
    }
    const ProfileStore::Stats st = store.stats();
    EXPECT_EQ(st.simulated, 1U) << "threads=" << threads;
    EXPECT_EQ(st.memory_hits + st.coalesced, 0U) << "threads=" << threads;
  }
}

TEST(ProfileStore, DiskRoundTripBitEqualityExact) {
  const std::string dir = fresh_dir("exact");
  const Scenario s = tiny_scenario(sim::SimFidelity::kExact);
  ScenarioResult fresh;
  {
    ProfileStore cold(dir);
    fresh = *cold.get_or_run(s);
    EXPECT_EQ(cold.stats().simulated, 1U);
  }
  ProfileStore warm(dir);
  const ScenarioResult reloaded = *warm.get_or_run(s);
  const ProfileStore::Stats st = warm.stats();
  EXPECT_EQ(st.simulated, 0U) << "warm store must not re-simulate";
  EXPECT_EQ(st.disk_hits, 1U);
  expect_identical(fresh, reloaded);
}

TEST(ProfileStore, DiskRoundTripBitEqualitySampled) {
  const std::string dir = fresh_dir("sampled");
  const Scenario s = tiny_scenario(sim::SimFidelity::kSampled);
  ScenarioResult fresh;
  {
    ProfileStore cold(dir);
    fresh = *cold.get_or_run(s);
  }
  ProfileStore warm(dir);
  const ScenarioResult reloaded = *warm.get_or_run(s);
  EXPECT_EQ(warm.stats().simulated, 0U);
  EXPECT_EQ(warm.stats().disk_hits, 1U);
  expect_identical(fresh, reloaded);
}

TEST(ProfileStore, WarmRunRewritesNothing) {
  const std::string dir = fresh_dir("stable");
  const Scenario s = tiny_scenario();
  {
    ProfileStore cold(dir);
    (void)cold.get_or_run(s);
  }
  const std::string path = dir + "/" + scenario_key(s).hex() + ".json";
  std::ostringstream before;
  before << std::ifstream(path).rdbuf();
  {
    ProfileStore warm(dir);
    (void)warm.get_or_run(s);
  }
  std::ostringstream after;
  after << std::ifstream(path).rdbuf();
  EXPECT_EQ(before.str(), after.str()) << "warm hit must leave the cache file byte-identical";
}

TEST(ProfileStore, SchemaVersionBumpInvalidatesCache) {
  const std::string dir = fresh_dir("schema");
  const Scenario s = tiny_scenario();
  {
    ProfileStore cold(dir);
    (void)cold.get_or_run(s);
  }
  // Simulate a file written by an older schema: rewrite its version field.
  const std::string path = dir + "/" + scenario_key(s).hex() + ".json";
  std::ostringstream buf;
  buf << std::ifstream(path).rdbuf();
  std::string text = buf.str();
  const std::string from = strformat("\"schema\": %d,", kScenarioSchemaVersion);
  const std::size_t pos = text.find(from);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, from.size(), "\"schema\": 0,");
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }
  ProfileStore warm(dir);
  (void)warm.get_or_run(s);
  EXPECT_EQ(warm.stats().disk_hits, 0U) << "stale schema must be ignored";
  EXPECT_EQ(warm.stats().simulated, 1U);
  // And the stale file was replaced by a current-schema one.
  std::ostringstream rewritten;
  rewritten << std::ifstream(path).rdbuf();
  EXPECT_NE(rewritten.str().find(strformat("\"schema\": %d", kScenarioSchemaVersion)),
            std::string::npos);
}

TEST(ProfileStore, ParserRejectsMalformedInput) {
  const Scenario s = tiny_scenario();
  const ScenarioKey k = scenario_key(s);
  ScenarioResult out;
  EXPECT_FALSE(parse_profile_cache("", k, out) == CacheParse::kOk);
  EXPECT_FALSE(parse_profile_cache("not json", k, out) == CacheParse::kOk);
  EXPECT_FALSE(parse_profile_cache("{\"schema\": 1}", k, out) == CacheParse::kOk);
  // A syntactically valid file whose key does not match is rejected too.
  const ScenarioResult r = run_scenario(s);
  ScenarioKey other = k;
  other.lo ^= 1;
  EXPECT_FALSE(parse_profile_cache(profile_cache_json(s, k, r), other, out) == CacheParse::kOk);
  EXPECT_TRUE(parse_profile_cache(profile_cache_json(s, k, r), k, out) == CacheParse::kOk);
}

TEST(ProfileStore, JsonRoundTripsThroughParser) {
  const Scenario s = tiny_scenario();
  const ScenarioKey k = scenario_key(s);
  const ScenarioResult r = run_scenario(s);
  ScenarioResult parsed;
  ASSERT_TRUE(parse_profile_cache(profile_cache_json(s, k, r), k, parsed) == CacheParse::kOk);
  expect_identical(r, parsed);
}

}  // namespace
}  // namespace pp::core

// The ProfileStore cache format across builds. tests/golden/cache/ holds a
// cache file written by an earlier build for a tiny MON scenario; it must
// keep loading, rewrite to the same bytes, and be served from a read-only
// directory (the PROFILE_CACHE_RO promise). A seeded mutation pass then
// feeds the reader thousands of damaged copies of it: none may crash, and
// none may load as anything but the original result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "base/rng.hpp"
#include "core/profile_store.hpp"

namespace pp::core {
namespace {

const std::string kGoldenDir = std::string(PP_SOURCE_DIR) + "/tests/golden/cache";

/// The scenario the golden file holds (store_fault_test's tiny_scenario),
/// pinned to the exact tier so SIM_FIDELITY cannot move its key.
Scenario golden_scenario() {
  Testbed tb(Scale::kQuick, 1);
  tb.machine_config().fidelity = sim::SimFidelity::kExact;
  tb.machine_config().sample_period_max = tb.machine_config().sample_period;
  RunConfig cfg = tb.configure({FlowSpec::of(FlowType::kMon)}, 1);
  cfg.warmup_ms = 0.2;
  cfg.measure_ms = 0.4;
  return Scenario::of(tb, cfg);
}

std::string golden_text(const ScenarioKey& k) {
  std::ifstream in(kGoldenDir + "/" + k.hex() + ".json");
  EXPECT_TRUE(in) << "missing golden cache file for key " << k.hex();
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(StoreGolden, ParsesAndRewritesByteForByte) {
  const Scenario s = golden_scenario();
  const ScenarioKey k = scenario_key(s);
  const std::string text = golden_text(k);
  ScenarioResult parsed;
  ASSERT_EQ(parse_profile_cache(text, k, parsed), CacheParse::kOk);
  EXPECT_EQ(profile_cache_json(s, k, parsed), text);
}

TEST(StoreGolden, ServedFromAReadOnlyDirectory) {
  const Scenario s = golden_scenario();
  ProfileStore store("", kGoldenDir);
  const auto r = store.get_or_run(s);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(store.stats().ro_hits, 1U);
  EXPECT_EQ(store.stats().simulated, 0U);
  EXPECT_EQ(store.stats().quarantined, 0U);
}

/// One deterministic mutation of `text`: a byte flip, a span delete, a span
/// duplicate or a truncation.
std::string mutate(const std::string& text, Pcg32& rng) {
  std::string m = text;
  const auto n = static_cast<std::uint32_t>(m.size());
  const std::size_t at = rng.bounded(n);
  const std::size_t len = std::min<std::size_t>(1 + rng.bounded(32), m.size() - at);
  switch (rng.bounded(4)) {
    case 0:
      m[at] = static_cast<char>(m[at] ^ static_cast<char>(1 + rng.bounded(255)));
      break;
    case 1:
      m.erase(at, len);
      break;
    case 2:
      m.insert(at, m.substr(at, len));
      break;
    default:
      m.resize(at);
      break;
  }
  return m;
}

TEST(StoreGolden, SeededMutationsNeverCrashOrLoadAnotherResult) {
  const Scenario s = golden_scenario();
  const ScenarioKey k = scenario_key(s);
  const std::string text = golden_text(k);
  ScenarioResult original;
  ASSERT_EQ(parse_profile_cache(text, k, original), CacheParse::kOk);
  const std::uint64_t checksum = result_checksum(original);
  const std::string canonical = profile_cache_json(s, k, original);

  Pcg32 rng(0x6d757461746531ULL);
  int ok = 0;
  int stale = 0;
  int corrupt = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string m = mutate(text, rng);
    ScenarioResult got;
    switch (parse_profile_cache(m, k, got)) {
      case CacheParse::kOk:
        ++ok;
        // A loaded mutant is the original result: same checksum, and every
        // field (the writer renders them all) rewrites to the same bytes.
        EXPECT_EQ(result_checksum(got), checksum) << "mutant " << i << ":\n" << m;
        EXPECT_EQ(profile_cache_json(s, k, got), canonical) << "mutant " << i << ":\n" << m;
        break;
      case CacheParse::kStale:
        ++stale;
        EXPECT_TRUE(got.empty()) << "mutant " << i;
        break;
      case CacheParse::kCorrupt:
        ++corrupt;
        EXPECT_TRUE(got.empty()) << "mutant " << i;
        break;
    }
  }
  // Both outcomes occur: flips in the informational bytes ("seconds",
  // "scenario", whitespace) still load; most damage is caught.
  EXPECT_GT(ok, 0);
  EXPECT_GT(corrupt, 1000);
  std::printf("mutants: ok=%d stale=%d corrupt=%d\n", ok, stale, corrupt);
}

}  // namespace
}  // namespace pp::core

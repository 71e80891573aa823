// The read-only secondary cache layer (PROFILE_CACHE_RO): hits are served
// without simulating, misses fall through to simulation, and the RO
// directory is never written — the contract that makes it safe to point at
// a store populated by another build tree or (eventually) another machine.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "base/fault.hpp"
#include "core/profile_store.hpp"

namespace pp::core {
namespace {

Scenario tiny_scenario(std::uint64_t seed = 1) {
  Testbed tb(Scale::kQuick, 1);
  tb.machine_config().fidelity = sim::SimFidelity::kExact;
  RunConfig cfg = tb.configure({FlowSpec::of(FlowType::kMon)}, seed);
  cfg.warmup_ms = 0.2;
  cfg.measure_ms = 0.4;
  return Scenario::of(tb, cfg);
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "pp_ro_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::size_t file_count(const std::string& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator(dir, ec);
       !ec && it != std::filesystem::directory_iterator(); ++it) {
    ++n;
  }
  return n;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::filesystem::file_time_type mtime_of_only_file(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    return std::filesystem::last_write_time(entry.path());
  }
  return {};
}

TEST(ProfileStoreRo, HitServesWithoutSimulatingOrWriting) {
  const std::string shared = fresh_dir("hit_shared");
  const Scenario s = tiny_scenario();

  // Populate the shared directory through a writable store.
  ScenarioResult reference;
  {
    ProfileStore writer(shared);
    reference = *writer.get_or_run(s);
    ASSERT_EQ(writer.stats().simulated, 1U);
    ASSERT_EQ(file_count(shared), 1U);
  }
  const auto mtime_before = mtime_of_only_file(shared);

  // A store with *only* the read-only layer serves the result from it.
  ProfileStore reader({}, shared);
  const ScenarioResult got = *reader.get_or_run(s);
  const ProfileStore::Stats st = reader.stats();
  EXPECT_EQ(st.simulated, 0U) << "an RO hit must not re-simulate";
  EXPECT_EQ(st.ro_hits, 1U);
  EXPECT_EQ(st.disk_hits, 0U);
  ASSERT_EQ(got.size(), reference.size());
  EXPECT_EQ(got[0].seconds, reference[0].seconds);  // bit-exact reload
  EXPECT_EQ(got[0].delta.cycles, reference[0].delta.cycles);
  EXPECT_EQ(got[0].delta.packets, reference[0].delta.packets);

  // ...and never touches the directory.
  EXPECT_EQ(file_count(shared), 1U);
  EXPECT_EQ(mtime_of_only_file(shared), mtime_before);
}

TEST(ProfileStoreRo, MissSimulatesAndWritesOnlyThePrimary) {
  const std::string shared = fresh_dir("miss_shared");
  const std::string primary = fresh_dir("miss_primary");

  // The RO layer knows seed 1 only.
  {
    ProfileStore writer(shared);
    (void)writer.get_or_run(tiny_scenario(1));
  }
  ASSERT_EQ(file_count(shared), 1U);

  // Seed 2 misses both layers: it must simulate and persist to the primary
  // directory, leaving the RO directory untouched.
  ProfileStore store(primary, shared);
  (void)store.get_or_run(tiny_scenario(2));
  const ProfileStore::Stats st = store.stats();
  EXPECT_EQ(st.simulated, 1U);
  EXPECT_EQ(st.ro_hits, 0U);
  EXPECT_EQ(file_count(primary), 1U);
  EXPECT_EQ(file_count(shared), 1U) << "the RO layer must never be written";

  // Seed 1 now hits the RO layer (after the primary misses) — still no copy
  // into the primary.
  (void)store.get_or_run(tiny_scenario(1));
  EXPECT_EQ(store.stats().ro_hits, 1U);
  EXPECT_EQ(store.stats().simulated, 1U);
  EXPECT_EQ(file_count(primary), 1U) << "RO hits are not copied forward";
}

TEST(ProfileStoreRo, CorruptRoEntryWarnsResimulatesAndNeverMutatesTheLayer) {
  const std::string shared = fresh_dir("corrupt_shared");
  const Scenario s = tiny_scenario();
  ScenarioResult reference;
  {
    ProfileStore writer(shared);
    reference = *writer.get_or_run(s);
  }
  // Trash the only RO entry in place.
  std::string victim;
  for (const auto& entry : std::filesystem::directory_iterator(shared)) {
    victim = entry.path().string();
  }
  ASSERT_FALSE(victim.empty());
  {
    std::ofstream out(victim, std::ios::trunc);
    out << "CORRUPT{";
  }

  ProfileStore reader({}, shared);
  const ScenarioResult got = *reader.get_or_run(s);
  const ProfileStore::Stats st = reader.stats();
  EXPECT_EQ(st.ro_hits, 0U);
  EXPECT_EQ(st.simulated, 1U) << "corruption degrades to re-simulation";
  EXPECT_EQ(st.quarantined, 1U);
  EXPECT_EQ(st.ro_quarantine_warnings, 1U)
      << "RO corruption is counted separately (the ppd stat surface)";
  // ...and the answer is still right.
  ASSERT_EQ(got.size(), reference.size());
  EXPECT_EQ(got[0].delta.cycles, reference[0].delta.cycles);
  EXPECT_EQ(got[0].delta.packets, reference[0].delta.packets);

  // The RO layer was not mutated: same single file, no .bad rename, the
  // garbage bytes still in place.
  EXPECT_EQ(file_count(shared), 1U);
  EXPECT_TRUE(std::filesystem::exists(victim));
  std::ifstream in(victim);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "CORRUPT{");
}

TEST(ProfileStoreRo, InjectedRoMissSimulatesAndLeavesTheLayerAlone) {
  const std::string shared = fresh_dir("inj_shared");
  const Scenario s = tiny_scenario();
  {
    ProfileStore writer(shared);
    (void)writer.get_or_run(s);
  }
  const std::string path = shared + "/" + scenario_key(s).hex() + ".json";
  const std::string before = read_file(path);

  std::string err;
  ASSERT_TRUE(FaultInjector::global().configure("store.ro:miss@1", &err)) << err;
  ProfileStore reader({}, shared);
  (void)reader.get_or_run(s);
  FaultInjector::global().reset();
  EXPECT_EQ(reader.stats().ro_hits, 0U);
  EXPECT_EQ(reader.stats().simulated, 1U);
  EXPECT_EQ(reader.stats().quarantined, 0U) << "an RO load failure is a miss, not corruption";
  EXPECT_EQ(file_count(shared), 1U);
  EXPECT_EQ(read_file(path), before) << "the RO layer must never be written";
}

TEST(ProfileStoreRo, StatsLineAppendsNewCountersLast) {
  ProfileStore::Stats st;
  st.simulated = 2;
  st.ro_quarantine_warnings = 5;
  st.prewarm_shared = 7;
  const std::string line = ProfileStore::stats_line(st);
  // Tooling anchors on the original prefix; new counters append after it,
  // in the order they were added.
  EXPECT_EQ(line.rfind("simulated=2 ", 0), 0U) << line;
  const std::string tail = " memory_only=0 ro_quarantine_warnings=5 prewarm_shared=7";
  ASSERT_GE(line.size(), tail.size());
  EXPECT_EQ(line.substr(line.size() - tail.size()), tail)
      << "new fields must append after ro_quarantine_warnings: " << line;
}

TEST(ProfileStoreRo, StatsDeltaSubtractsCountersAndCarriesTheMode) {
  ProfileStore::Stats base;
  base.simulated = 3;
  base.memory_hits = 1;
  base.disk_hits = 2;
  base.ro_hits = 1;
  base.coalesced = 1;
  base.quarantined = 1;
  base.persist_errors = 1;
  base.ro_quarantine_warnings = 1;
  base.prewarm_shared = 4;
  ProfileStore::Stats now = base;
  now.simulated += 2;
  now.memory_hits += 4;
  now.ro_quarantine_warnings += 1;
  now.prewarm_shared += 8;
  now.memory_only = true;

  const ProfileStore::Stats d = ProfileStore::Stats::delta(now, base);
  EXPECT_EQ(d.simulated, 2U);
  EXPECT_EQ(d.memory_hits, 4U);
  EXPECT_EQ(d.disk_hits, 0U);
  EXPECT_EQ(d.ro_hits, 0U);
  EXPECT_EQ(d.coalesced, 0U);
  EXPECT_EQ(d.quarantined, 0U);
  EXPECT_EQ(d.persist_errors, 0U);
  EXPECT_EQ(d.ro_quarantine_warnings, 1U);
  EXPECT_EQ(d.prewarm_shared, 8U);
  EXPECT_TRUE(d.memory_only) << "memory_only is a mode, not a counter: current value carries";
  EXPECT_EQ(ProfileStore::stats_line(d),
            "simulated=2 memory_hits=4 disk_hits=0 ro_hits=0 coalesced=0 quarantined=0 "
            "persist_errors=0 memory_only=1 ro_quarantine_warnings=1 prewarm_shared=8");
}

TEST(ProfileStoreRo, PrimaryWinsWhenBothLayersHold) {
  const std::string shared = fresh_dir("both_shared");
  const std::string primary = fresh_dir("both_primary");
  const Scenario s = tiny_scenario();
  {
    ProfileStore writer(shared);
    (void)writer.get_or_run(s);
  }
  {
    ProfileStore writer(primary);
    (void)writer.get_or_run(s);
  }

  ProfileStore store(primary, shared);
  (void)store.get_or_run(s);
  EXPECT_EQ(store.stats().disk_hits, 1U);
  EXPECT_EQ(store.stats().ro_hits, 0U);
  EXPECT_EQ(store.stats().simulated, 0U);
}

}  // namespace
}  // namespace pp::core

// ProfileStore corruption/failure matrix: every way a cache entry or a
// persistence step can go wrong must degrade to quarantine + re-simulation
// with results bit-identical to a cold run — never a wrong result, never a
// crash. Fault-injected cases use base/fault.hpp (the PP_FAULTS machinery).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>

#include "base/fault.hpp"
#include "base/status.hpp"
#include "base/strings.hpp"
#include "core/profile_store.hpp"
#include "core/sweep.hpp"

namespace pp::core {
namespace {

Scenario tiny_scenario(std::uint64_t seed = 1) {
  Testbed tb(Scale::kQuick, 1);
  RunConfig cfg = tb.configure({FlowSpec::of(FlowType::kMon)}, seed);
  cfg.warmup_ms = 0.2;
  cfg.measure_ms = 0.4;
  return Scenario::of(tb, cfg);
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "pp_store_fault_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ostringstream buf;
  buf << std::ifstream(path).rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seconds, b[i].seconds);
    EXPECT_EQ(a[i].delta.packets, b[i].delta.packets);
    EXPECT_EQ(a[i].delta.cycles, b[i].delta.cycles);
    EXPECT_EQ(a[i].delta.l3_misses, b[i].delta.l3_misses);
  }
}

std::size_t count_suffix(const std::string& dir, const std::string& suffix) {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().string().ends_with(suffix)) ++n;
  }
  return n;
}

/// Populate `dir` with the entry for `s` and return the cold result.
ScenarioResult populate(const std::string& dir, const Scenario& s) {
  ProfileStore cold(dir);
  return *cold.get_or_run(s);
}

/// Manual-corruption matrix: mutate the on-disk entry with `mutate`, then
/// assert a warm store quarantines it, re-simulates bit-identically, and
/// rewrites a healthy entry that the NEXT store loads from disk again.
void expect_quarantine_and_heal(const char* name,
                                const std::function<void(const std::string& path)>& mutate) {
  const std::string dir = fresh_dir(name);
  const Scenario s = tiny_scenario();
  const ScenarioResult cold = populate(dir, s);
  const std::string path = dir + "/" + scenario_key(s).hex() + ".json";
  mutate(path);

  ProfileStore warm(dir);
  const ScenarioResult healed = *warm.get_or_run(s);
  expect_identical(cold, healed);
  EXPECT_EQ(warm.stats().quarantined, 1U);
  EXPECT_EQ(warm.stats().disk_hits, 0U);
  EXPECT_EQ(warm.stats().simulated, 1U);
  EXPECT_EQ(count_suffix(dir, ".bad"), 1U) << "corrupt entry must be renamed, not deleted";
  EXPECT_TRUE(std::filesystem::exists(path)) << "healthy entry must be rewritten";

  // Warm-after-quarantine: the healed entry is a plain disk hit; the .bad
  // file is never read and never cleaned up behind the user's back.
  ProfileStore again(dir);
  const ScenarioResult reloaded = *again.get_or_run(s);
  expect_identical(cold, reloaded);
  EXPECT_EQ(again.stats().disk_hits, 1U);
  EXPECT_EQ(again.stats().simulated, 0U);
  EXPECT_EQ(again.stats().quarantined, 0U);
  EXPECT_EQ(count_suffix(dir, ".bad"), 1U);
}

TEST(StoreFault, TruncatedFileQuarantinesAndHeals) {
  expect_quarantine_and_heal("truncated", [](const std::string& path) {
    const std::string text = read_file(path);
    write_file(path, text.substr(0, text.size() / 2));
  });
}

TEST(StoreFault, BitFlippedPayloadCaughtByChecksum) {
  expect_quarantine_and_heal("bitflip", [](const std::string& path) {
    std::string text = read_file(path);
    // Flip one digit inside the first counters array: the envelope still
    // parses, so only the checksum can catch this.
    const std::size_t at = text.find("\"counters\": [");
    ASSERT_NE(at, std::string::npos);
    for (std::size_t i = at + 13; i < text.size(); ++i) {
      if (text[i] >= '0' && text[i] <= '9') {
        text[i] = static_cast<char>(text[i] ^ 0x01);
        break;
      }
    }
    write_file(path, text);
  });
}

TEST(StoreFault, GarbageFileQuarantines) {
  expect_quarantine_and_heal("garbage", [](const std::string& path) {
    write_file(path, "this is not json at all {{{");
  });
}

TEST(StoreFault, ForgedChecksumQuarantines) {
  expect_quarantine_and_heal("checksum", [](const std::string& path) {
    std::string text = read_file(path);
    const std::size_t at = text.find("\"checksum\": \"");
    ASSERT_NE(at, std::string::npos);
    // Overwrite the 16 hex digits with a value that cannot match.
    for (std::size_t i = at + 13; i < at + 13 + 16; ++i) text[i] = 'f';
    write_file(path, text);
  });
}

/// Replace the first `from` in the entry at `path` with `to`.
void replace_in_file(const std::string& path, const std::string& from, const std::string& to) {
  std::string text = read_file(path);
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  text.replace(at, from.size(), to);
  write_file(path, text);
}

// tiny_scenario is one MON flow (type 1) on core 0. Narrowing 257 to the
// 8-bit FlowType gives MON again, and 2^32 to int gives core 0, so the
// checksum over the narrowed result would match: the reader must reject the
// out-of-range values themselves.
TEST(StoreFault, OutOfRangeFlowTypeQuarantines) {
  expect_quarantine_and_heal("type_range", [](const std::string& path) {
    replace_in_file(path, "\"type\": 1,", "\"type\": 257,");
  });
}

TEST(StoreFault, OutOfRangeCoreQuarantines) {
  expect_quarantine_and_heal("core_range", [](const std::string& path) {
    replace_in_file(path, "\"core\": 0,", "\"core\": 4294967296,");
  });
}

TEST(StoreFault, StaleSchemaIsAMissNotCorruption) {
  const std::string dir = fresh_dir("stale");
  const Scenario s = tiny_scenario();
  const ScenarioResult cold = populate(dir, s);
  const std::string path = dir + "/" + scenario_key(s).hex() + ".json";
  std::string text = read_file(path);
  const std::string from = strformat("\"schema\": %d,", kScenarioSchemaVersion);
  const std::size_t pos = text.find(from);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, from.size(), "\"schema\": 1,");
  write_file(path, text);

  ProfileStore warm(dir);
  expect_identical(cold, *warm.get_or_run(s));
  EXPECT_EQ(warm.stats().simulated, 1U) << "stale schema re-simulates";
  EXPECT_EQ(warm.stats().quarantined, 0U) << "...but is not corruption";
  EXPECT_EQ(count_suffix(dir, ".bad"), 0U);
}

TEST(StoreFault, ChecksumTracksResultContent) {
  const Scenario s = tiny_scenario();
  ScenarioResult r = run_scenario(s);
  const std::uint64_t base = result_checksum(r);
  EXPECT_EQ(base, result_checksum(r)) << "checksum is a pure function";
  ASSERT_FALSE(r.empty());
  r[0].delta.cycles ^= 1;
  EXPECT_NE(base, result_checksum(r)) << "one flipped counter bit must change it";
}

// ------------------------------------------------- injected-fault matrix

/// Configure the global injector for one test body and reset it on scope
/// exit (later tests in this process must start fault-free).
class InjectedFault {
 public:
  explicit InjectedFault(const std::string& spec) {
    std::string err;
    ok_ = FaultInjector::global().configure(spec, &err);
    EXPECT_TRUE(ok_) << err;
  }
  ~InjectedFault() { FaultInjector::global().reset(); }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

TEST(StoreFault, InjectedReadErrorQuarantinesAndHeals) {
  const std::string dir = fresh_dir("inj_read");
  const Scenario s = tiny_scenario();
  const ScenarioResult cold = populate(dir, s);

  InjectedFault f("store.read:err@1");
  ProfileStore warm(dir);
  expect_identical(cold, *warm.get_or_run(s));
  EXPECT_EQ(warm.stats().quarantined, 1U);
  EXPECT_EQ(warm.stats().simulated, 1U);
}

TEST(StoreFault, InjectedParseFailureQuarantinesAndHeals) {
  const std::string dir = fresh_dir("inj_parse");
  const Scenario s = tiny_scenario();
  const ScenarioResult cold = populate(dir, s);

  InjectedFault f("store.parse:fail@1");
  ProfileStore warm(dir);
  expect_identical(cold, *warm.get_or_run(s));
  EXPECT_EQ(warm.stats().quarantined, 1U);
  EXPECT_EQ(count_suffix(dir, ".bad"), 1U);
  EXPECT_EQ(warm.stats().simulated, 1U);
}

TEST(StoreFault, InjectedPayloadCorruptionCaughtByChecksum) {
  const std::string dir = fresh_dir("inj_payload");
  const Scenario s = tiny_scenario();
  const ScenarioResult cold = populate(dir, s);

  InjectedFault f("store.payload:corrupt@1");
  ProfileStore warm(dir);
  expect_identical(cold, *warm.get_or_run(s));
  EXPECT_EQ(warm.stats().quarantined, 1U);
  EXPECT_EQ(warm.stats().simulated, 1U);
}

TEST(StoreFault, InjectedOpenMissFallsBackWithoutQuarantine) {
  const std::string dir = fresh_dir("inj_open");
  const Scenario s = tiny_scenario();
  const ScenarioResult cold = populate(dir, s);

  InjectedFault f("store.open:miss@1");
  ProfileStore warm(dir);
  expect_identical(cold, *warm.get_or_run(s));
  EXPECT_EQ(warm.stats().quarantined, 0U) << "an open failure is a miss, not corruption";
  EXPECT_EQ(warm.stats().simulated, 1U);
  EXPECT_EQ(count_suffix(dir, ".bad"), 0U);
}

TEST(StoreFault, WriteFailureLeaksNoTmpAndStreakResetsOnSuccess) {
  const std::string dir = fresh_dir("inj_write");
  InjectedFault f("store.write:fail@1");
  ProfileStore store(dir);
  (void)store.get_or_run(tiny_scenario(1));  // first write fails
  EXPECT_EQ(store.stats().persist_errors, 1U);
  EXPECT_EQ(count_suffix(dir, ".tmp"), 0U) << "failed writes must not leak temp files";
  EXPECT_EQ(count_suffix(dir, ".json"), 0U);

  (void)store.get_or_run(tiny_scenario(2));  // second write succeeds
  EXPECT_EQ(store.stats().persist_errors, 1U);
  EXPECT_FALSE(store.stats().memory_only);
  EXPECT_EQ(count_suffix(dir, ".json"), 1U);

  // The success reset the streak: one more failure would not reach the
  // backoff threshold of kPersistBackoffThreshold consecutive failures.
  static_assert(ProfileStore::kPersistBackoffThreshold == 3);
}

TEST(StoreFault, RenameFailuresBackOffToMemoryOnlyMode) {
  const std::string dir = fresh_dir("inj_rename");
  InjectedFault f("store.rename:fail@1.0");  // every rename fails
  ProfileStore store(dir);
  for (std::uint64_t seed = 1; seed <= ProfileStore::kPersistBackoffThreshold; ++seed) {
    (void)store.get_or_run(tiny_scenario(seed));
  }
  EXPECT_EQ(store.stats().persist_errors,
            static_cast<std::uint64_t>(ProfileStore::kPersistBackoffThreshold));
  EXPECT_TRUE(store.stats().memory_only);
  EXPECT_EQ(count_suffix(dir, ".tmp"), 0U);
  EXPECT_EQ(count_suffix(dir, ".json"), 0U);

  // Memory-only mode skips persistence entirely: the counter stops growing
  // and results stay correct (cached in memory, re-simulated next process).
  (void)store.get_or_run(tiny_scenario(99));
  EXPECT_EQ(store.stats().persist_errors,
            static_cast<std::uint64_t>(ProfileStore::kPersistBackoffThreshold));
  EXPECT_EQ(store.stats().simulated, 4U);
}

TEST(StoreFault, InjectedScenarioFaultThrowsAndReleasesTheKey) {
  InjectedFault f("scenario.run:fail@1");
  ProfileStore store;
  const Scenario s = tiny_scenario();
  try {
    (void)store.get_or_run(s);
    FAIL() << "injected scenario fault must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().kind, StatusKind::kFaultInjected);
    EXPECT_EQ(e.status().site, "scenario.run");
  }
  // The key was released: the retry (fault fired already) succeeds.
  const auto r = store.get_or_run(s);
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->empty());
}

TEST(StoreFault, GetOrRunManyRethrowsLowestIndexError) {
  // Two slots fail with budget errors that name their own numbers. The
  // higher-index one has more flows, so heaviest-first dispatch runs it
  // first; the lower-index error must still be the one rethrown.
  const auto over_budget = [](std::vector<FlowSpec> flows, std::uint64_t seed, double budget) {
    Testbed tb(Scale::kQuick, 1);
    RunConfig cfg = tb.configure(std::move(flows), seed);
    cfg.warmup_ms = 0.2;
    cfg.measure_ms = 0.4;
    cfg.budget_ms = budget;
    return Scenario::of(tb, cfg);
  };
  const FlowSpec mon = FlowSpec::of(FlowType::kMon);
  const std::vector<Scenario> jobs = {tiny_scenario(1), over_budget({mon}, 2, 0.5),
                                      tiny_scenario(3), over_budget({mon, mon}, 4, 0.25)};
  for (int threads : {1, 4}) {
    ProfileStore store;
    try {
      (void)store.get_or_run_many(jobs, threads);
      FAIL() << "a batch with failing slots must throw (threads=" << threads << ")";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().kind, StatusKind::kBudgetExceeded);
      EXPECT_NE(e.status().detail.find("run budget 0.500 ms"), std::string::npos)
          << "threads=" << threads << ": " << e.status().detail;
    }
    // Every healthy slot still ran to completion.
    EXPECT_EQ(store.stats().simulated, 2U) << "threads=" << threads;
  }
}

/// One setup group: an FW sweep target at the five quick ramp levels
/// (same machine and warm state, different SYN reads/instr).
std::vector<Scenario> setup_group() {
  Testbed tb(Scale::kQuick, 1);
  std::vector<Scenario> jobs;
  for (const SynParams& level : SweepProfiler::default_levels(Scale::kQuick)) {
    RunConfig cfg = tb.configure({FlowSpec::of(FlowType::kFw)}, 3);
    for (int c = 0; c < 3; ++c) {
      cfg.flows.push_back(FlowSpec::syn_flow(level, static_cast<std::uint64_t>(c + 2)));
      cfg.placement.push_back(FlowPlacement{1 + c, -1});
    }
    cfg.warmup_ms = 0.2;
    cfg.measure_ms = 0.3;
    jobs.push_back(Scenario::of(tb, cfg));
  }
  return jobs;
}

/// Run `jobs` through one fan-out whose first dispatched job (the setup
/// leader) fails as `arm` arranges; every other slot must come out with
/// its standalone bytes, nothing may hang, and no warm state may survive.
void expect_failed_leader_is_contained(
    const std::function<std::unique_ptr<InjectedFault>(std::vector<Scenario>&)>& arm,
    StatusKind kind, const std::string& site) {
  const std::vector<Scenario> jobs = setup_group();
  std::vector<ScenarioResult> alone;
  for (const Scenario& s : jobs) alone.push_back(run_scenario(s));
  for (const int threads : {1, 4}) {
    std::vector<Scenario> armed = jobs;
    ProfileStore store;
    {
      const std::unique_ptr<InjectedFault> fault = arm(armed);
      try {
        (void)store.get_or_run_many(armed, threads);
        FAIL() << "the failing leader must surface (threads=" << threads << ")";
      } catch (const StatusError& e) {
        EXPECT_EQ(e.status().kind, kind) << "threads=" << threads;
        EXPECT_EQ(e.status().site, site) << "threads=" << threads;
      }
    }
    EXPECT_EQ(SetupShare::live_snapshots(), 0) << "threads=" << threads;
    // Four members ran: one prewarmed, three restored its state.
    EXPECT_EQ(store.stats().simulated, jobs.size() - 1) << "threads=" << threads;
    EXPECT_EQ(store.stats().prewarm_shared, jobs.size() - 2) << "threads=" << threads;
    // The members that ran are stored with their standalone bytes, and the
    // failed key was released: a retry outside the fan-out runs it alone.
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      expect_identical(alone[j], *store.get_or_run(jobs[j]));
    }
    EXPECT_EQ(store.stats().simulated, jobs.size()) << "threads=" << threads;
  }
}

TEST(StoreFault, SetupLeaderFaultLeavesFollowersStandalone) {
  // The first scenario.run occurrence is the group leader at threads=1
  // (leaders dispatch first); at threads=4 it is whichever member starts
  // first. Either way one member fails before its prewarm point.
  expect_failed_leader_is_contained(
      [](std::vector<Scenario>&) {
        return std::make_unique<InjectedFault>("scenario.run:fail@1");
      },
      StatusKind::kFaultInjected, "scenario.run");
}

TEST(StoreFault, SetupLeaderPastItsDeadlineLeavesFollowersStandalone) {
  expect_failed_leader_is_contained(
      [](std::vector<Scenario>& jobs) {
        jobs[0].deadline = std::chrono::steady_clock::now();  // already expired
        return std::unique_ptr<InjectedFault>();
      },
      StatusKind::kBudgetExceeded, "scenario.deadline");
}

TEST(StoreFault, StatsLineCarriesRobustnessCounters) {
  ProfileStore store;
  const std::string line = store.stats_line();
  EXPECT_NE(line.find("quarantined=0"), std::string::npos) << line;
  EXPECT_NE(line.find("persist_errors=0"), std::string::npos) << line;
  EXPECT_NE(line.find("memory_only=0"), std::string::npos) << line;
  // The warm-cache CI grep contract: the original fields stay first.
  EXPECT_EQ(line.find("simulated=0 "), 0U) << line;
}

}  // namespace
}  // namespace pp::core

// Content-addressed, thread-safe store of scenario results.
//
// The store is the platform's memo table for offline profiling: every
// experiment the profiling/prediction stack needs is phrased as a Scenario
// (core/scenario.hpp), keyed by content, and executed at most once —
//
//   * in memory: concurrent get_or_run calls for the same key coalesce
//     (single-flight: the first caller simulates, the rest block on its
//     result), so fan-outs over parallel_for never duplicate work;
//   * on disk (opt-in): when constructed with a cache directory (an
//     api::Session's store takes SessionOptions::cache_dir), results
//     persist as one versioned, checksummed JSON file per key and are
//     reloaded bit-identically — doubles round-trip by bit pattern — so a
//     repeated bench run re-simulates nothing. Files with a stale
//     kScenarioSchemaVersion are ignored and rewritten.
//
// The persistence layer is crash-safe and self-healing: corrupt files
// (torn writes, bit rot, checksum mismatches) are quarantined to
// `<key>.bad` and re-simulated; every persistence failure degrades to
// re-simulation — never wrong results, never a crash — and after
// kPersistBackoffThreshold consecutive write failures the store drops to
// memory-only mode with a single warning. Fault-injection sites (store.*)
// make every one of these paths testable (base/fault.hpp).
//
// Concurrency guarantees and the persistence format are documented in
// docs/scenario_engine.md; failure semantics in docs/robustness.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/scenario.hpp"

namespace pp::core {

class ProfileStore {
 public:
  struct Stats {
    std::uint64_t simulated = 0;    // scenarios actually run on this process
    std::uint64_t memory_hits = 0;  // served from the in-memory table
    std::uint64_t disk_hits = 0;    // loaded from the cache directory
    std::uint64_t ro_hits = 0;      // loaded from the read-only secondary dir
    std::uint64_t coalesced = 0;    // waited on a concurrent identical run
    std::uint64_t quarantined = 0;  // corrupt cache files detected (primary: renamed .bad)
    std::uint64_t persist_errors = 0;  // failed writes/renames (degraded to re-simulation)
    std::uint64_t ro_quarantine_warnings = 0;  // corrupt RO-tier entries (warned, never mutated)
    std::uint64_t prewarm_shared = 0;  // runs that restored a setup sibling's warm state
    bool memory_only = false;       // write-side backoff engaged (stopped persisting)

    /// Counter-wise `now - base`: the per-request store activity the ppd
    /// daemon reports for each served spec (memory_only is a mode, not a
    /// counter — the current value carries over).
    [[nodiscard]] static Stats delta(const Stats& now, const Stats& base);
  };

  /// Consecutive persistence failures before the store stops writing
  /// (memory-only mode); one success resets the streak.
  static constexpr int kPersistBackoffThreshold = 3;

  /// `cache_dir` empty = in-memory only (the tier-1 test default).
  /// `ro_dir` is an optional read-only secondary cache
  /// (SessionOptions::cache_dir_ro for a session's store): consulted after
  /// a `cache_dir` miss, before simulating, and never written — so a result
  /// store populated elsewhere (another build tree, a shared filesystem,
  /// eventually another machine; content keys make that safe by
  /// construction) can be layered under a local scratch cache.
  explicit ProfileStore(std::string cache_dir = {}, std::string ro_dir = {});

  ProfileStore(const ProfileStore&) = delete;
  ProfileStore& operator=(const ProfileStore&) = delete;

  /// The result for `s`, simulating it at most once per key across all
  /// threads and (with a cache dir) across processes. The returned pointer
  /// is immutable and shared; it stays valid for the store's lifetime.
  /// Throws pp::StatusError when execution itself fails (run budget,
  /// injected scenario fault); persistence failures never throw — they
  /// degrade to re-simulation. Concurrent waiters on a failed run rethrow
  /// the runner's error, except a budget/deadline refusal, which is the
  /// runner's own guard: such a waiter runs again under its own. The key is
  /// released so a later call may retry.
  [[nodiscard]] std::shared_ptr<const ScenarioResult> get_or_run(const Scenario& s);

  /// Fan a scenario list out over up to `threads` host threads (results in
  /// input order). Memory hits are collected inline. The remaining
  /// scenarios share one SetupShare: the first member of each setup group
  /// is dispatched before every other job, and otherwise the order is
  /// heaviest first (stable, descending flow count). A key repeated in the
  /// list runs once: later slots share the first slot's pointer and bump no
  /// counter. If any scenario fails, every job still completes, then the
  /// lowest-index error is rethrown (thread-count invariant).
  [[nodiscard]] ScenarioRuns get_or_run_many(const std::vector<Scenario>& scenarios,
                                             int threads);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const std::string& cache_dir() const { return dir_; }
  [[nodiscard]] const std::string& ro_cache_dir() const { return ro_dir_; }

  /// One-line "simulated=N memory_hits=N disk_hits=N ..." summary
  /// (bench binaries print it to stderr so stdout stays byte-comparable).
  /// The static overload formats an arbitrary snapshot identically — the ppd
  /// daemon renders per-request Stats::delta lines with it, so CI greps work
  /// the same against one-shot ppctl stderr and ppd serve output.
  [[nodiscard]] std::string stats_line() const;
  [[nodiscard]] static std::string stats_line(const Stats& s);

 private:
  struct Entry {
    std::mutex m;
    std::condition_variable cv;
    bool ready = false;
    std::shared_ptr<const ScenarioResult> result;
    std::exception_ptr error;  // set instead of result when the run failed
  };

  enum class Load : std::uint8_t { kMiss, kHit, kCorrupt };

  /// `share` (optional) is the caller's fan-out: a run happens as its slot
  /// `member`.
  [[nodiscard]] std::shared_ptr<const ScenarioResult> get_or_run_keyed(
      const Scenario& s, const ScenarioKey& k, SetupShare* share = nullptr,
      std::size_t member = 0);
  [[nodiscard]] bool is_ready(const ScenarioKey& k) const;
  [[nodiscard]] static std::string path_in(const std::string& dir, const ScenarioKey& k);
  [[nodiscard]] Load load_from_dir(const std::string& dir, const ScenarioKey& k,
                                   ScenarioResult& out, bool read_only) const;
  void quarantine(const std::string& dir, const ScenarioKey& k, bool read_only) const;
  void save_to_disk(const Scenario& s, const ScenarioKey& k, const ScenarioResult& r) const;
  void note_persist_failure(const std::string& path) const;

  std::string dir_;
  std::string ro_dir_;
  mutable std::mutex mu_;  // guards map_
  std::unordered_map<std::string, std::shared_ptr<Entry>> map_;  // key hex -> entry
  std::atomic<std::uint64_t> simulated_{0};
  std::atomic<std::uint64_t> memory_hits_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> ro_hits_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> prewarm_shared_{0};
  // Robustness counters are mutable: loads/saves run on const paths.
  mutable std::atomic<std::uint64_t> quarantined_{0};
  mutable std::atomic<std::uint64_t> persist_errors_{0};
  mutable std::atomic<std::uint64_t> ro_quarantine_warnings_{0};
  mutable std::atomic<int> consecutive_persist_failures_{0};
  mutable std::atomic<bool> memory_only_{false};
};

/// Serialize / parse one result file (exposed for tests). The file is read
/// with api::Json::parse, the one JSON reader for spec files, ppd envelopes
/// and cache files; the writer emits only objects, arrays, escape-free
/// strings and unsigned decimal integers.
[[nodiscard]] std::string profile_cache_json(const Scenario& s, const ScenarioKey& k,
                                             const ScenarioResult& r);

/// Parse verdict: kOk (loaded), kStale (a complete, well-formed document
/// whose `schema` is another version — a plain miss, silently rewritten),
/// kCorrupt (everything else: garbage, a torn file whatever its schema,
/// duplicate keys, key mismatch, out-of-range fields, missing/stale checksum
/// — quarantined by the store). `out` is filled only on kOk.
enum class CacheParse : std::uint8_t { kOk, kStale, kCorrupt };

[[nodiscard]] CacheParse parse_profile_cache(const std::string& text, const ScenarioKey& expect,
                                             ScenarioResult& out);

/// FNV-1a checksum over a result's canonical bytes (the bit patterns that
/// determine bit-identical reload: types, cores, seconds bits, all counters,
/// element names/classes). Written into the cache envelope and verified on
/// load; exposed so tests can forge stale checksums.
[[nodiscard]] std::uint64_t result_checksum(const ScenarioResult& r);

}  // namespace pp::core

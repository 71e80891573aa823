#include "core/profile_store.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "api/json.hpp"  // pplint: allow(layering) — api::Json is the one JSON reader
#include "base/check.hpp"
#include "base/fault.hpp"
#include "base/status.hpp"
#include "base/strings.hpp"
#include "core/parallel.hpp"

namespace pp::core {

namespace {

/// True for run_scenario's pre-run guards (budget_ms, deadline): refusals
/// that depend on the caller, not on the scenario's content.
bool is_guard_refusal(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const StatusError& e) {
    return e.status().kind == StatusKind::kBudgetExceeded;
  } catch (...) {
    return false;
  }
}

}  // namespace

ProfileStore::ProfileStore(std::string cache_dir, std::string ro_dir)
    : dir_(std::move(cache_dir)), ro_dir_(std::move(ro_dir)) {}

ProfileStore::Stats ProfileStore::stats() const {
  Stats s;
  s.simulated = simulated_.load();
  s.memory_hits = memory_hits_.load();
  s.disk_hits = disk_hits_.load();
  s.ro_hits = ro_hits_.load();
  s.coalesced = coalesced_.load();
  s.quarantined = quarantined_.load();
  s.persist_errors = persist_errors_.load();
  s.ro_quarantine_warnings = ro_quarantine_warnings_.load();
  s.prewarm_shared = prewarm_shared_.load();
  s.memory_only = memory_only_.load();
  return s;
}

ProfileStore::Stats ProfileStore::Stats::delta(const Stats& now, const Stats& base) {
  Stats d;
  d.simulated = now.simulated - base.simulated;
  d.memory_hits = now.memory_hits - base.memory_hits;
  d.disk_hits = now.disk_hits - base.disk_hits;
  d.ro_hits = now.ro_hits - base.ro_hits;
  d.coalesced = now.coalesced - base.coalesced;
  d.quarantined = now.quarantined - base.quarantined;
  d.persist_errors = now.persist_errors - base.persist_errors;
  d.ro_quarantine_warnings = now.ro_quarantine_warnings - base.ro_quarantine_warnings;
  d.prewarm_shared = now.prewarm_shared - base.prewarm_shared;
  d.memory_only = now.memory_only;
  return d;
}

std::string ProfileStore::stats_line(const Stats& s) {
  // New fields append after the original five: tooling (the CI warm-cache
  // grep included) anchors on the "simulated=N " prefix.
  return strformat("simulated=%llu memory_hits=%llu disk_hits=%llu ro_hits=%llu "
                   "coalesced=%llu quarantined=%llu persist_errors=%llu memory_only=%d "
                   "ro_quarantine_warnings=%llu prewarm_shared=%llu",
                   static_cast<unsigned long long>(s.simulated),
                   static_cast<unsigned long long>(s.memory_hits),
                   static_cast<unsigned long long>(s.disk_hits),
                   static_cast<unsigned long long>(s.ro_hits),
                   static_cast<unsigned long long>(s.coalesced),
                   static_cast<unsigned long long>(s.quarantined),
                   static_cast<unsigned long long>(s.persist_errors),
                   s.memory_only ? 1 : 0,
                   static_cast<unsigned long long>(s.ro_quarantine_warnings),
                   static_cast<unsigned long long>(s.prewarm_shared));
}

std::string ProfileStore::stats_line() const { return stats_line(stats()); }

std::shared_ptr<const ScenarioResult> ProfileStore::get_or_run(const Scenario& s) {
  return get_or_run_keyed(s, scenario_key(s));
}

std::shared_ptr<const ScenarioResult> ProfileStore::get_or_run_keyed(const Scenario& s,
                                                                     const ScenarioKey& k,
                                                                     SetupShare* share,
                                                                     std::size_t member) {
  std::shared_ptr<Entry> e;
  bool runner = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto [it, inserted] = map_.try_emplace(k.hex());
    if (inserted) {
      it->second = std::make_shared<Entry>();
      runner = true;
    }
    e = it->second;
  }

  if (!runner) {
    std::unique_lock<std::mutex> lk(e->m);
    if (!e->ready) {
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      e->cv.wait(lk, [&] { return e->ready; });
    } else {
      memory_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    if (e->error) {
      const std::exception_ptr err = e->error;
      lk.unlock();
      // A budget or deadline refusal is the runner's own guard, not a
      // property of the key (neither field is content): run again under
      // this caller's guard instead of inheriting another caller's.
      if (is_guard_refusal(err)) return get_or_run_keyed(s, k, share, member);
      std::rethrow_exception(err);
    }
    return e->result;
  }

  ScenarioResult r;
  bool have = false;
  if (!dir_.empty()) {
    switch (load_from_dir(dir_, k, r, /*read_only=*/false)) {
      case Load::kHit:
        disk_hits_.fetch_add(1, std::memory_order_relaxed);
        have = true;
        break;
      case Load::kCorrupt:
        quarantine(dir_, k, /*read_only=*/false);
        break;
      case Load::kMiss:
        break;
    }
  }
  if (!have && !ro_dir_.empty()) {
    // Served straight from the read-only layer: counted separately and
    // never copied into (or written back to) either directory.
    switch (load_from_dir(ro_dir_, k, r, /*read_only=*/true)) {
      case Load::kHit:
        ro_hits_.fetch_add(1, std::memory_order_relaxed);
        have = true;
        break;
      case Load::kCorrupt:
        quarantine(ro_dir_, k, /*read_only=*/true);
        break;
      case Load::kMiss:
        break;
    }
  }
  if (!have) {
    try {
      r = share != nullptr ? run_scenario(s, *share, member) : run_scenario(s);
    } catch (...) {
      // Release the key first so a later call may retry, then wake waiters
      // with the error (they hold their own shared_ptr to this entry).
      const std::exception_ptr err = std::current_exception();
      {
        std::lock_guard<std::mutex> lk(mu_);
        map_.erase(k.hex());
      }
      {
        std::lock_guard<std::mutex> lk(e->m);
        e->error = err;
        e->ready = true;
      }
      e->cv.notify_all();
      std::rethrow_exception(err);
    }
    simulated_.fetch_add(1, std::memory_order_relaxed);
    if (!dir_.empty()) save_to_disk(s, k, r);
  }
  auto result = std::make_shared<const ScenarioResult>(std::move(r));
  {
    std::lock_guard<std::mutex> lk(e->m);
    e->result = result;
    e->ready = true;
  }
  e->cv.notify_all();
  return result;
}

bool ProfileStore::is_ready(const ScenarioKey& k) const {
  std::shared_ptr<Entry> e;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = map_.find(k.hex());
    if (it == map_.end()) return false;
    e = it->second;
  }
  std::lock_guard<std::mutex> lk(e->m);
  return e->ready;
}

ScenarioRuns ProfileStore::get_or_run_many(const std::vector<Scenario>& scenarios,
                                           int threads) {
  ScenarioRuns out(scenarios.size());
  std::vector<ScenarioKey> keys;
  keys.reserve(scenarios.size());
  for (const Scenario& s : scenarios) keys.push_back(scenario_key(s));
  // parallel_for fns must not throw (core/parallel.hpp): trap per-slot, let
  // every job finish, then rethrow the lowest-index error — which scenario
  // fails is thread-count and dispatch-order invariant.
  std::vector<std::exception_ptr> errors(scenarios.size());
  const auto run_slot = [&](std::size_t i, SetupShare* share) {
    try {
      out[i] = get_or_run_keyed(scenarios[i], keys[i], share, i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    if (share != nullptr) share->leave(i);
  };
  // A repeated key is collapsed onto its first slot: it shares that slot's
  // pointer, bumps no counter and never parks a pool thread on a sibling.
  // Memory hits are collected inline: re-aggregations of already-profiled
  // plans (warm requests, a corun whose solos are stored) should not spin
  // up the thread pool just for them.
  std::unordered_map<std::string, std::size_t> first_slot;
  std::vector<std::size_t> same(scenarios.size());
  std::vector<std::size_t> pending;
  std::vector<const Scenario*> members(scenarios.size(), nullptr);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto [it, inserted] = first_slot.try_emplace(keys[i].hex(), i);
    same[i] = it->second;
    if (!inserted) continue;
    if (is_ready(keys[i])) {
      run_slot(i, nullptr);
    } else {
      pending.push_back(i);
      members[i] = &scenarios[i];
    }
  }
  // Setup groups first: each group's first member produces the warm state
  // its siblings restore, so starting every producer before any follower
  // keeps followers from waiting. Then heaviest first: a run's host cost
  // grows with its flow count, so a 6-flow corun or sweep level must not
  // start last behind 1-flow solos. The order is a stable function of the
  // scenarios themselves (never of host time); results still land in their
  // input slots.
  SetupShare share(members);
  std::stable_sort(pending.begin(), pending.end(), [&](std::size_t a, std::size_t b) {
    if (share.leads(a) != share.leads(b)) return share.leads(a);
    return scenarios[a].flows.size() > scenarios[b].flows.size();
  });
  parallel_for(pending.size(), threads, [&](std::size_t k) { run_slot(pending[k], &share); });
  prewarm_shared_.fetch_add(share.restores(), std::memory_order_relaxed);
  // A repeat's first slot has a lower index, so the lowest-index error is
  // always a first slot's.
  for (const std::exception_ptr& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i) out[i] = out[same[i]];
  return out;
}

// -------------------------------------------------------------- persistence

std::string ProfileStore::path_in(const std::string& dir, const ScenarioKey& k) {
  return dir + "/" + k.hex() + ".json";
}

ProfileStore::Load ProfileStore::load_from_dir(const std::string& dir, const ScenarioKey& k,
                                               ScenarioResult& out, bool read_only) const {
  if (pp::fault(read_only ? "store.ro" : "store.open")) return Load::kMiss;
  std::ifstream in(path_in(dir, k));
  if (!in) return Load::kMiss;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Load::kMiss;  // read error: conservative miss, not corruption
  std::string text = buf.str();
  if (pp::fault("store.read")) text.resize(text.size() / 2);  // torn read
  if (pp::fault("store.payload")) {
    // Bit rot: flip the low bit of the first counter digit — still a digit,
    // different value, so only the checksum can catch it.
    const std::size_t at = text.find("\"counters\": [");
    const std::size_t digit = at == std::string::npos ? text.size() / 2
                                                      : text.find_first_of("0123456789", at);
    if (digit != std::string::npos && digit < text.size()) {
      text[digit] = static_cast<char>(text[digit] ^ 0x01);
    }
  }
  if (pp::fault("store.parse")) return Load::kCorrupt;
  switch (parse_profile_cache(text, k, out)) {
    case CacheParse::kOk:
      return Load::kHit;
    case CacheParse::kStale:
      return Load::kMiss;  // older schema: plain miss, rewritten after re-run
    case CacheParse::kCorrupt:
      break;
  }
  return Load::kCorrupt;
}

void ProfileStore::quarantine(const std::string& dir, const ScenarioKey& k,
                              bool read_only) const {
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  const std::string path = path_in(dir, k);
  if (read_only) {
    ro_quarantine_warnings_.fetch_add(1, std::memory_order_relaxed);
    // Never mutate the read-only layer; just stop trusting this entry.
    std::fprintf(stderr, "ProfileStore: corrupt read-only cache entry %s (ignored)\n",
                 path.c_str());
    return;
  }
  const std::string bad = dir + "/" + k.hex() + ".bad";
  std::error_code ec;
  std::filesystem::rename(path, bad, ec);
  if (ec) {
    std::filesystem::remove(path, ec);
    std::fprintf(stderr, "ProfileStore: removed corrupt cache entry %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "ProfileStore: quarantined corrupt cache entry %s -> %s\n",
                 path.c_str(), bad.c_str());
  }
}

void ProfileStore::save_to_disk(const Scenario& s, const ScenarioKey& k,
                                const ScenarioResult& r) const {
  if (memory_only_.load(std::memory_order_relaxed)) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  const std::string path = path_in(dir_, k);
  // Write-then-rename so a concurrent reader never sees a torn file.
  const std::string tmp = path + ".tmp";
  bool ok = true;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (pp::fault("store.write") || !out) {
      ok = false;
    } else {
      out << profile_cache_json(s, k, r);
      out.flush();
      if (!out.good()) ok = false;  // short write (ENOSPC and friends)
    }
  }
  if (ok) {
    if (pp::fault("store.rename")) {
      ok = false;
    } else {
      std::filesystem::rename(tmp, path, ec);
      if (ec) ok = false;
    }
  }
  if (!ok) {
    std::filesystem::remove(tmp, ec);  // never leak the temp file
    note_persist_failure(path);
    return;
  }
  consecutive_persist_failures_.store(0, std::memory_order_relaxed);
}

void ProfileStore::note_persist_failure(const std::string& path) const {
  persist_errors_.fetch_add(1, std::memory_order_relaxed);
  const int streak = consecutive_persist_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= kPersistBackoffThreshold) {
    if (!memory_only_.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "ProfileStore: %d consecutive persistence failures; dropping to "
                   "memory-only mode (results stay correct, just not persisted)\n",
                   streak);
    }
  } else {
    std::fprintf(stderr, "ProfileStore: cannot persist %s (will re-simulate next run)\n",
                 path.c_str());
  }
}

// ------------------------------------------------------------ serialization

namespace {

/// The counters in their on-disk order, shared by the writer, the reader and
/// the checksum. The order is part of the schema; adding a counter requires a
/// kScenarioSchemaVersion bump.
constexpr std::array<std::uint64_t sim::Counters::*, 15> kCounterFields = {
    &sim::Counters::instructions, &sim::Counters::cycles, &sim::Counters::l1_hits,
    &sim::Counters::l1_misses, &sim::Counters::l2_hits, &sim::Counters::l2_misses,
    &sim::Counters::l3_refs, &sim::Counters::l3_misses, &sim::Counters::xcore_hits,
    &sim::Counters::remote_refs, &sim::Counters::writebacks, &sim::Counters::mc_queue_cycles,
    &sim::Counters::qpi_queue_cycles, &sim::Counters::packets, &sim::Counters::drops,
};

void counters_out(std::string& j, const sim::Counters& c) {
  char sep = '[';
  for (const auto field : kCounterFields) {
    j += sep;
    j += std::to_string(c.*field);
    sep = ',';
  }
  j += ']';
}

/// Exactly one non-negative integer per counter field, in table order.
bool read_counters(const api::Json* v, sim::Counters& c) {
  if (v == nullptr || !v->is_array() || v->items().size() != kCounterFields.size()) {
    return false;
  }
  for (std::size_t i = 0; i < kCounterFields.size(); ++i) {
    if (!v->items()[i].as_u64(c.*kCounterFields[i])) return false;
  }
  return true;
}

const std::string* string_field(const api::Json& obj, const char* name) {
  const api::Json* v = obj.find(name);
  return v != nullptr && v->is_string() ? &v->as_string() : nullptr;
}

bool u64_field(const api::Json& obj, const char* name, std::uint64_t& out) {
  const api::Json* v = obj.find(name);
  return v != nullptr && v->as_u64(out);
}

bool read_element(const api::Json& e, ElementStat& st) {
  const std::string* name = string_field(e, "name");
  const std::string* cls = string_field(e, "class");
  if (name == nullptr || cls == nullptr) return false;
  st.name = *name;
  st.cls = *cls;
  return read_counters(e.find("counters"), st.delta);
}

/// One `flows` entry. Out-of-range `type` and `core` values are corrupt:
/// narrowing them would wrap onto valid values the checksum cannot tell apart.
bool read_flow(const api::Json& f, FlowMetrics& m) {
  std::uint64_t type = 0;
  std::uint64_t core = 0;
  std::uint64_t seconds_bits = 0;
  if (!u64_field(f, "type", type) || type > static_cast<std::uint64_t>(FlowType::kSynMax) ||
      !u64_field(f, "core", core) ||
      core > static_cast<std::uint64_t>(std::numeric_limits<int>::max()) ||
      !u64_field(f, "seconds_bits", seconds_bits) ||
      !read_counters(f.find("counters"), m.delta)) {
    return false;
  }
  m.type = static_cast<FlowType>(type);
  m.core = static_cast<int>(core);
  m.seconds = std::bit_cast<double>(seconds_bits);
  const api::Json* elements = f.find("elements");
  if (elements == nullptr || !elements->is_array()) return false;
  m.elements.resize(elements->items().size());
  for (std::size_t i = 0; i < m.elements.size(); ++i) {
    if (!read_element(elements->items()[i], m.elements[i])) return false;
  }
  return true;
}

}  // namespace

std::uint64_t result_checksum(const ScenarioResult& r) {
  // Plain FNV-1a over the canonical bytes the reader reconstructs: anything
  // that changes a reloaded result changes the checksum. Informational-only
  // bytes (the decimal "seconds" rendering, whitespace) are deliberately
  // outside it — corruption there cannot change a result.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto byte = [&h](std::uint8_t b) { h = (h ^ b) * 0x100000001b3ULL; };
  const auto u64 = [&byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(v & 0xffU));
      v >>= 8U;
    }
  };
  const auto str = [&byte, &u64](const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  };
  const auto counters = [&u64](const sim::Counters& c) {
    for (const auto field : kCounterFields) u64(c.*field);
  };
  u64(r.size());
  for (const FlowMetrics& m : r) {
    u64(static_cast<std::uint64_t>(static_cast<std::uint8_t>(m.type)));
    u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(m.core)));
    u64(std::bit_cast<std::uint64_t>(m.seconds));
    counters(m.delta);
    u64(m.elements.size());
    for (const ElementStat& st : m.elements) {
      str(st.name);
      str(st.cls);
      counters(st.delta);
    }
  }
  return h;
}

std::string profile_cache_json(const Scenario& s, const ScenarioKey& k,
                               const ScenarioResult& r) {
  std::string j;
  j += "{\n";
  j += strformat("  \"schema\": %d,\n", kScenarioSchemaVersion);
  j += "  \"key\": \"" + k.hex() + "\",\n";
  j += strformat("  \"checksum\": \"%016llx\",\n",
                 static_cast<unsigned long long>(result_checksum(r)));
  j += "  \"scenario\": \"" + describe(s) + "\",\n";
  j += "  \"flows\": [\n";
  for (std::size_t i = 0; i < r.size(); ++i) {
    const FlowMetrics& m = r[i];
    j += strformat("    {\"type\": %u, \"core\": %d,\n",
                   static_cast<unsigned>(static_cast<std::uint8_t>(m.type)), m.core);
    // seconds_bits is authoritative (exact double round-trip); the decimal
    // rendering is informational only.
    j += strformat("     \"seconds_bits\": %llu, \"seconds\": \"%.9f\",\n",
                   static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(m.seconds)),
                   m.seconds);
    j += "     \"counters\": ";
    counters_out(j, m.delta);
    j += ",\n     \"elements\": [\n";
    for (std::size_t e = 0; e < m.elements.size(); ++e) {
      const ElementStat& st = m.elements[e];
      j += "      {\"name\": \"" + st.name + "\", \"class\": \"" + st.cls +
           "\", \"counters\": ";
      counters_out(j, st.delta);
      j += e + 1 < m.elements.size() ? "},\n" : "}\n";
    }
    j += "     ]";
    j += i + 1 < r.size() ? "},\n" : "}\n";
  }
  j += "  ]\n}\n";
  return j;
}

CacheParse parse_profile_cache(const std::string& text, const ScenarioKey& expect,
                               ScenarioResult& out) {
  out.clear();
  const std::optional<api::Json> doc = api::Json::parse(text);
  if (!doc.has_value() || !doc->is_object()) return CacheParse::kCorrupt;
  // Only a complete document from another version is stale: a torn file is
  // corrupt whatever its schema.
  std::uint64_t schema = 0;
  if (!u64_field(*doc, "schema", schema)) return CacheParse::kCorrupt;
  if (schema != static_cast<std::uint64_t>(kScenarioSchemaVersion)) return CacheParse::kStale;
  const std::string* key = string_field(*doc, "key");
  const std::string* checksum = string_field(*doc, "checksum");
  const api::Json* flows = doc->find("flows");
  // A run always yields at least one flow.
  if (key == nullptr || *key != expect.hex() || checksum == nullptr || flows == nullptr ||
      !flows->is_array() || flows->items().empty()) {
    return CacheParse::kCorrupt;
  }
  ScenarioResult r(flows->items().size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (!read_flow(flows->items()[i], r[i])) return CacheParse::kCorrupt;
  }
  // The checksum is required (schema v3) and must match the reconstructed
  // payload: a forged value or a bit flip that survived the structural walk
  // lands here.
  if (*checksum != strformat("%016llx", static_cast<unsigned long long>(result_checksum(r)))) {
    return CacheParse::kCorrupt;
  }
  out = std::move(r);
  return CacheParse::kOk;
}

}  // namespace pp::core

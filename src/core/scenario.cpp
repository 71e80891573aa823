#include "core/scenario.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "base/check.hpp"
#include "base/fault.hpp"
#include "base/hash.hpp"
#include "base/status.hpp"
#include "base/strings.hpp"
#include "click/elements_io.hpp"
#include "click/router.hpp"

namespace pp::core {

Scenario Scenario::of(const Testbed& tb, const RunConfig& cfg) {
  Scenario s;
  s.machine = tb.machine_config();
  s.sizes = tb.sizes();
  s.flows = cfg.flows;
  s.placement = cfg.placement;
  s.warmup_ms = cfg.warmup_ms;
  s.measure_ms = cfg.measure_ms;
  s.seed = cfg.seed;
  s.budget_ms = cfg.budget_ms;
  s.deadline = cfg.deadline;
  return s;
}

// ------------------------------------------------------------------- hashing

namespace {

/// Canonical byte-stream hasher: two independently seeded FNV-1a streams
/// folded through mix64 at the end. Field order is part of the schema.
class KeyHasher {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(v & 0xffU));
      v >>= 8U;
    }
  }
  void u32(std::uint32_t v) { u64(v); }
  void i32(int v) { u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  [[nodiscard]] ScenarioKey key() const {
    // Cross-mix so the two halves do not share the single-stream collision
    // structure of plain FNV.
    ScenarioKey k;
    k.hi = mix64(a_ ^ mix64(b_));
    k.lo = mix64(b_ + 0x9e3779b97f4a7c15ULL) ^ mix64(a_ + 0x94d049bb133111ebULL);
    return k;
  }

 private:
  void byte(std::uint8_t b) {
    a_ = (a_ ^ b) * 0x100000001b3ULL;
    b_ = (b_ ^ b) * 0x00000100000001b3ULL ^ 0x9e3779b97f4a7c15ULL;
    b_ = b_ * 0x100000001b3ULL;
  }

  std::uint64_t a_ = 0xcbf29ce484222325ULL;
  std::uint64_t b_ = 0x84222325cbf29ce4ULL;
};

void hash_geometry(KeyHasher& h, const sim::CacheGeometry& g) {
  h.u32(g.size_bytes);
  h.u32(g.ways);
  h.u32(g.line_bytes);
}

void hash_machine(KeyHasher& h, const sim::MachineConfig& m) {
  h.i32(m.sockets);
  h.i32(m.cores_per_socket);
  h.f64(m.ghz);
  h.i32(m.compute_ipc);
  hash_geometry(h, m.l1);
  hash_geometry(h, m.l2);
  hash_geometry(h, m.l3);
  h.u64(m.l2_latency);
  h.u64(m.l3_latency);
  h.u64(m.dram_extra);
  h.u64(m.snoop_extra);
  h.u64(m.qpi_latency);
  h.i32(m.mc_channels);
  h.u64(m.mc_service);
  h.i32(m.qpi_lanes);
  h.u64(m.qpi_service);
  h.i32(m.mlp);
  h.u64(static_cast<std::uint64_t>(m.fidelity));
  h.u32(m.sample_period);
  h.u32(m.sample_period_max);
  h.u64(m.sample_seed);
}

void hash_sizes(KeyHasher& h, const WorkloadSizes& z) {
  h.u64(z.prefixes);
  h.u64(z.flow_buckets);
  h.u64(z.flow_pool);
  h.u64(z.rules);
  h.u64(z.re_store_mb);
  h.u64(z.re_table_slots);
  h.u32(z.small_packet);
  h.u32(z.re_packet);
  h.u32(z.vpn_packet);
}

/// The canonical stream of scenario_key; `run_fields` false skips the
/// run-only fields (setup_key).
void hash_scenario(KeyHasher& h, const Scenario& s, bool run_fields) {
  h.i32(kScenarioSchemaVersion);
  hash_machine(h, s.machine);
  hash_sizes(h, s.sizes);
  h.u64(s.flows.size());
  for (const FlowSpec& f : s.flows) {
    h.u64(static_cast<std::uint64_t>(f.type));
    if (run_fields) {
      h.u64(f.syn.reads);
      h.u64(f.syn.instr);
    }
    h.u64(f.syn.table_mb);
    h.u64(f.seed);
    h.i32(f.batch);
  }
  h.u64(s.placement.size());
  for (const FlowPlacement& p : s.placement) {
    h.i32(p.core);
    h.i32(p.data_domain);
  }
  if (run_fields) {
    h.f64(s.warmup_ms);
    h.f64(s.measure_ms);
  }
  h.u64(s.seed);
}

}  // namespace

ScenarioKey scenario_key(const Scenario& s) {
  KeyHasher h;
  hash_scenario(h, s, /*run_fields=*/true);
  return h.key();
}

ScenarioKey setup_key(const Scenario& s) {
  KeyHasher h;
  hash_scenario(h, s, /*run_fields=*/false);
  return h.key();
}

std::string ScenarioKey::hex() const { return strformat("%016llx%016llx",
                                                        static_cast<unsigned long long>(hi),
                                                        static_cast<unsigned long long>(lo)); }

ScenarioRuns slice(const ScenarioRuns& runs, std::size_t at, std::size_t n) {
  return {runs.begin() + static_cast<std::ptrdiff_t>(at),
          runs.begin() + static_cast<std::ptrdiff_t>(at + n)};
}

std::string describe(const Scenario& s) {
  std::string out;
  FlowType last = FlowType::kIp;
  int run = 0;
  const auto flush = [&] {
    if (run == 0) return;
    if (!out.empty()) out += '+';
    out += strformat("%dx%s", run, to_string(last));
  };
  for (const FlowSpec& f : s.flows) {
    if (run > 0 && f.type == last) {
      ++run;
      continue;
    }
    flush();
    last = f.type;
    run = 1;
  }
  flush();
  out += strformat(" seed=%llu %s", static_cast<unsigned long long>(s.seed),
                   to_string(s.machine.fidelity));
  return out;
}

// ------------------------------------------------------------ setup sharing

namespace {

std::atomic<int> g_live_snapshots{0};

std::shared_ptr<const sim::MachineState> snapshot_of(const sim::Machine& machine) {
  const auto* state = new sim::MachineState(machine.save_state());
  g_live_snapshots.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<const sim::MachineState>(state, [](const sim::MachineState* p) {
    delete p;
    g_live_snapshots.fetch_sub(1, std::memory_order_relaxed);
  });
}

}  // namespace

SetupShare::SetupShare(const std::vector<const Scenario*>& members)
    : group_of_(members.size(), kNone), leads_(members.size()), settled_(members.size()) {
  std::unordered_map<std::string, std::size_t> first;  // setup key hex -> first member
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == nullptr) continue;
    const auto [it, inserted] = first.try_emplace(setup_key(*members[i]).hex(), i);
    if (inserted) continue;
    const std::size_t lead = it->second;
    if (group_of_[lead] == kNone) {
      group_of_[lead] = groups_.size();
      leads_[lead] = true;
      groups_.push_back(Group{1, Phase::kOpen, nullptr});
    }
    group_of_[i] = group_of_[lead];
    ++groups_[group_of_[i]].remaining;
  }
}

bool SetupShare::leads(std::size_t i) const { return leads_[i]; }

std::size_t SetupShare::settle(std::size_t i) {
  const std::size_t g = group_of_[i];
  if (g == kNone || settled_[i]) return kNone;
  settled_[i] = true;
  return g;
}

void SetupShare::publish(std::size_t g, std::shared_ptr<const sim::MachineState> state) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    Group& grp = groups_[g];
    grp.phase = Phase::kDone;
    if (grp.remaining > 0) grp.state = std::move(state);
  }
  cv_.notify_all();
}

void SetupShare::warm(std::size_t member, sim::Machine& machine,
                      const std::function<void()>& prewarm) {
  std::unique_lock<std::mutex> lk(mu_);
  const std::size_t g = settle(member);
  if (g == kNone) {
    lk.unlock();
    prewarm();
    return;
  }
  Group& grp = groups_[g];
  if (grp.phase == Phase::kOpen) {
    // Producer: waits on nothing, and publishes on every path.
    grp.phase = Phase::kProducing;
    --grp.remaining;
    lk.unlock();
    std::shared_ptr<const sim::MachineState> state;
    try {
      prewarm();
      lk.lock();
      const bool wanted = grp.remaining > 0;  // a sibling may still restore
      lk.unlock();
      if (wanted) state = snapshot_of(machine);
    } catch (...) {
      publish(g, nullptr);
      throw;
    }
    publish(g, std::move(state));
    return;
  }
  cv_.wait(lk, [&] { return grp.phase == Phase::kDone; });
  std::shared_ptr<const sim::MachineState> state = grp.state;
  if (--grp.remaining == 0) grp.state.reset();  // the last member frees it
  if (state != nullptr) ++restores_;
  lk.unlock();
  if (state == nullptr) {
    prewarm();  // the producer failed: warm standalone
    return;
  }
  machine.restore_state(*state);
}

void SetupShare::leave(std::size_t i) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t g = settle(i);
  if (g == kNone) return;
  if (--groups_[g].remaining == 0) groups_[g].state.reset();
}

std::uint64_t SetupShare::restores() const {
  std::lock_guard<std::mutex> lk(mu_);
  return restores_;
}

int SetupShare::live_snapshots() { return g_live_snapshots.load(std::memory_order_relaxed); }

// ------------------------------------------------------------------- running

void check_run_guards(double run_ms, double budget_ms,
                      std::chrono::steady_clock::time_point deadline) {
  // The budget guard: simulated duration is known up front (windows are
  // scenario fields), so a runaway spec is refused deterministically before
  // any work instead of wedging a worker mid-run.
  if (budget_ms > 0 && run_ms > budget_ms) {
    throw StatusError(StatusKind::kBudgetExceeded, "scenario.run",
                      strformat("simulated run of %.3f ms exceeds the run budget %.3f ms",
                                run_ms, budget_ms));
  }
  // The deadline guard: one clock read before any simulation work, so a
  // deadlined ppd request stops *between* scenarios — the work done so far
  // is in the store, the client gets a structured budget_exceeded error,
  // and a draining daemon is never wedged behind a runaway plan.
  if (deadline != std::chrono::steady_clock::time_point{} &&
      std::chrono::steady_clock::now() >= deadline) {  // pplint: allow(nondeterminism) — deadline guard, outside simulated results
    throw StatusError(StatusKind::kBudgetExceeded, "scenario.deadline",
                      "wall-clock request deadline expired before this scenario started");
  }
}

namespace {

struct Snapshot {
  sim::Cycles now = 0;
  sim::Counters core;
  std::vector<sim::Counters> elements;
  sim::Counters pool;
};

Snapshot snap(sim::Machine& m, int core, const click::Router& router) {
  Snapshot s;
  s.now = m.core(core).now();
  s.core = m.core(core).counters();
  for (const auto& e : router.elements()) s.elements.push_back(e->stats());
  for (const auto& e : router.elements()) {
    if (auto* fd = dynamic_cast<click::FromDevice*>(e.get()); fd != nullptr && fd->pool()) {
      s.pool = fd->pool()->stats();
    }
  }
  return s;
}

ScenarioResult run_impl(const Scenario& cfg, SetupShare* share, std::size_t member) {
  PP_CHECK(!cfg.flows.empty());
  PP_CHECK(cfg.flows.size() == cfg.placement.size());

  check_run_guards(cfg.warmup_ms + cfg.measure_ms, cfg.budget_ms, cfg.deadline);
  if (pp::fault("scenario.run")) {
    throw StatusError(StatusKind::kFaultInjected, "scenario.run",
                      "injected scenario-execution failure (PP_FAULTS)");
  }

  sim::Machine machine(cfg.machine);
  std::vector<std::unique_ptr<click::Router>> routers;
  routers.reserve(cfg.flows.size());

  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    const FlowSpec& spec = cfg.flows[i];
    const FlowPlacement& pl = cfg.placement[i];
    PP_CHECK(pl.core >= 0 && pl.core < machine.num_cores());
    const int domain =
        pl.data_domain >= 0 ? pl.data_domain : machine.memory().socket_of(pl.core);
    const std::uint64_t flow_seed = hash_combine(cfg.seed, spec.seed + i * 1315423911ULL);
    auto router = std::make_unique<click::Router>(machine, pl.core, domain, flow_seed);
    // The effective seed must reach the traffic generators so that repeated
    // runs with different cfg.seed are genuinely independent (the paper
    // averages 5 independent runs per data point).
    FlowSpec seeded = spec;
    seeded.seed = flow_seed;
    if (auto err = build_flow(*router, seeded, cfg.sizes, default_registry()); err.has_value()) {
      PP_CHECK(false && "build_flow failed");
    }
    if (auto err = router->initialize(); err.has_value()) {
      std::fprintf(stderr, "router init failed: %s\n", err->c_str());
      PP_CHECK(false);
    }
    if (auto err = router->install_tasks(); err.has_value()) {
      std::fprintf(stderr, "task install failed: %s\n", err->c_str());
      PP_CHECK(false);
    }
    routers.push_back(std::move(router));
  }

  // Warm long-lived structures (tries, tables, rules) so the measurement
  // window sees the steady state, then align clocks so all flows start
  // together. Reverse order: flow 0 (the target in sweep/pairwise setups)
  // warms last, so it starts at or above its equilibrium cache share —
  // convergence from above happens at the *competitors'* insertion rate,
  // which is fast, whereas recovering from below happens at the target's
  // own miss rate, which for cache-friendly flows takes far longer than a
  // simulable warmup window.
  const auto prewarm = [&] {
    for (std::size_t i = routers.size(); i-- > 0;) {
      click::Context cx{machine.core(cfg.placement[i].core)};
      for (const auto& e : routers[i]->elements()) e->prewarm(cx);
    }
    machine.align_clocks(machine.max_time());
    // The serial prewarm pass issues traffic at unrealistic timestamps and a
    // compulsory-miss-only access mix; let neither its queueing backlog nor
    // its calibration signal leak into the measured window.
    machine.memory().clear_link_backlogs();
    machine.memory().reset_sample_calibration();
  };
  if (share != nullptr) {
    share->warm(member, machine, prewarm);
  } else {
    prewarm();
  }
  const sim::Cycles start = machine.max_time();

  const sim::Cycles warm = start + cfg.machine.ms_to_cycles(cfg.warmup_ms);
  const sim::Cycles measure = cfg.machine.ms_to_cycles(cfg.measure_ms);
  machine.run_until(warm);

  std::vector<Snapshot> begin;
  begin.reserve(cfg.flows.size());
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    begin.push_back(snap(machine, cfg.placement[i].core, *routers[i]));
  }

  machine.run_until(warm + measure);

  ScenarioResult out;
  out.reserve(cfg.flows.size());
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    const Snapshot end = snap(machine, cfg.placement[i].core, *routers[i]);
    FlowMetrics m;
    m.type = cfg.flows[i].type;
    m.core = cfg.placement[i].core;
    m.seconds = static_cast<double>(end.now - begin[i].now) / cfg.machine.hz();
    m.delta = end.core - begin[i].core;
    const auto& elems = routers[i]->elements();
    for (std::size_t e = 0; e < elems.size(); ++e) {
      ElementStat st;
      st.name = elems[e]->name();
      st.cls = std::string(elems[e]->class_name());
      st.delta = end.elements[e] - begin[i].elements[e];
      m.elements.push_back(std::move(st));
    }
    ElementStat pool;
    pool.name = "skb_recycle";
    pool.cls = "BufferPool";
    pool.delta = end.pool - begin[i].pool;
    m.elements.push_back(std::move(pool));
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

ScenarioResult run_scenario(const Scenario& s) { return run_impl(s, nullptr, 0); }

ScenarioResult run_scenario(const Scenario& s, SetupShare& share, std::size_t member) {
  return run_impl(s, &share, member);
}

}  // namespace pp::core

// The traced run: replays the workload's generated requests in-process
// through the public functions ppd is built from, with a span around every
// call, then probes single layers (store, scenario, per-app host cost) and
// the live daemon's connection cost. Per-layer metrics come from span self
// times and the public counters; a second replay with spans off gives the
// tracing overhead. Spans stay in memory and are written out at the end.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>

#include "api/frame.hpp"
#include "api/session.hpp"
#include "bench.hpp"
#include "core/parallel.hpp"
#include "core/profile_store.hpp"
#include "core/scenario.hpp"
#include "stats.hpp"

namespace pb {

namespace {

using Clock = std::chrono::steady_clock;
namespace api = pp::api;
namespace core = pp::core;

[[nodiscard]] double seconds_of(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Span recorder shared by every replay thread. Off = no clock reads and no
/// allocation, which is what the overhead comparison measures against.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  int begin(const char* name, int parent, std::uint64_t request) {
    if (!on_) return -1;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, t, t, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int span) {
    if (span < 0) return;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(span)].end_ns = t;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }

  bool on_;
  Clock::time_point epoch_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, int parent, std::uint64_t request)
      : t_(t), id_(t.begin(name, parent, request)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Every scenario a spec touches, in the order Session::run touches them:
/// the spec's own runs, the solo baselines, the predictor's sweep grid.
[[nodiscard]] std::vector<core::Scenario> plan_of(const api::ExperimentSpec& spec,
                                                  api::ViewStack& v) {
  std::vector<core::Scenario> plan;
  if (spec.kind == api::ExperimentKind::kSolo || spec.kind == api::ExperimentKind::kCorun) {
    plan = api::lower_spec(spec, v.tb);
  }
  if (spec.kind == api::ExperimentKind::kCorun || spec.kind == api::ExperimentKind::kPredict) {
    for (const core::FlowSpec& f : spec.flows) {
      for (core::Scenario& s : v.solo.plan(f)) plan.push_back(std::move(s));
    }
  }
  if (spec.kind == api::ExperimentKind::kPredict) {
    for (const core::FlowSpec& f : spec.flows) {
      for (const core::SynParams& level : core::SweepProfiler::default_levels(v.tb.scale())) {
        for (int s = 0; s < v.solo.seeds(); ++s) {
          plan.push_back(v.sweep.level_scenario(f, core::ContentionMode::kBoth, level, s));
        }
      }
    }
  }
  return plan;
}

[[nodiscard]] const char* session_span(api::ExperimentKind k) {
  switch (k) {
    case api::ExperimentKind::kSolo:
      return "api.session.solo";
    case api::ExperimentKind::kPredict:
      return "api.session.predict";
    default:
      return "api.session.corun";
  }
}

/// One request through the serve path's public functions, as ppd runs it:
/// frame in, parse, canonicalize, key, store fan-out, Session::run (now all
/// hits), render, frame out.
struct Replayed {
  std::size_t plan = 0;
  std::size_t bytes = 0;
};

Replayed replay_one(const Request& r, core::ProfileStore& store, const api::SessionOptions& base,
                    Tracer& tr, const int fds[2]) {
  Replayed out;
  const Scope req(tr, "request", -1, r.id);
  std::string got;
  pp::Status st;
  {
    const Scope s(tr, "api.frame.rw", req.id(), r.id);
    const std::string envelope = "{\"op\":\"run\",\"format\":\"" + r.format + "\"}";
    (void)api::write_frame(fds[0], api::join_payload(envelope, r.spec));
    (void)api::read_frame(fds[1], got, api::kDefaultMaxFrameBytes, st);
  }
  std::string envelope;
  std::string body;
  api::split_payload(got, envelope, body);
  std::optional<api::ExperimentSpec> spec;
  {
    const Scope s(tr, "api.spec.parse", req.id(), r.id);
    spec = api::ExperimentSpec::parse(body);
  }
  if (!spec.has_value()) return out;
  {
    const Scope s(tr, "api.spec.canon", req.id(), r.id);
    (void)spec->to_json();
  }
  const api::SessionOptions eff = api::apply_spec(*spec, base);
  std::vector<core::Scenario> plan;
  {
    const Scope s(tr, "core.key", req.id(), r.id);
    api::ViewStack v(eff, spec->seeds, store);
    plan = plan_of(*spec, v);
    for (const core::Scenario& sc : plan) (void)core::scenario_key(sc);
  }
  out.plan = plan.size();
  {
    const Scope fan(tr, "core.fanout", req.id(), r.id);
    core::parallel_for(plan.size(), eff.threads, [&](std::size_t i) {
      const Scope s(tr, "core.store.get_or_run", fan.id(), r.id);
      (void)store.get_or_run(plan[i]);
    });
  }
  api::Result res;
  {
    const Scope s(tr, session_span(spec->kind), req.id(), r.id);
    api::Session session(base, &store);
    res = session.run(*spec);
  }
  std::string reply;
  for (const char* fmt : {"text", "csv", "json"}) {
    const Scope s(tr, (std::string("api.render.") + fmt).c_str(), req.id(), r.id);
    std::string bytes = render(res, fmt);
    if (r.format == fmt) reply = std::move(bytes);
  }
  out.bytes = reply.size();
  {
    const Scope s(tr, "api.frame.rw", req.id(), r.id);
    (void)api::write_frame(fds[1], api::join_payload("{\"ok\":true}", reply));
    (void)api::read_frame(fds[0], got, api::kDefaultMaxFrameBytes, st);
  }
  return out;
}

/// Median of the values grouped under `key`; 0 when none were recorded.
[[nodiscard]] double med(const std::map<std::string, std::vector<double>>& by, const std::string& key) {
  const auto it = by.find(key);
  return it == by.end() ? 0 : percentile(it->second, 50);
}

[[nodiscard]] int dial_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(static_cast<std::uint16_t>(port));
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&a), sizeof a) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

[[nodiscard]] bool ping_on(int fd) {
  std::string payload;
  pp::Status st;
  return api::write_frame(fd, "{\"op\":\"ping\"}").ok() &&
         api::read_frame(fd, payload, api::kDefaultMaxFrameBytes, st) == api::FrameRead::kOk;
}

/// api.conn.setup_us: a ping on a fresh TCP connection minus a ping on an
/// open one (connect + ppd's per-connection thread).
void probe_connections(const Daemon& d, RunState& st) {
  std::vector<double> fresh;
  std::vector<double> open;
  const int keep = dial_tcp(d.tcp().port);
  for (int i = 0; i < 200 && keep >= 0; ++i) {
    Clock::time_point t0 = Clock::now();
    const int fd = dial_tcp(d.tcp().port);
    const bool ok = fd >= 0 && ping_on(fd);
    if (fd >= 0) ::close(fd);
    if (ok) fresh.push_back(seconds_of(Clock::now() - t0) * 1e6);
    t0 = Clock::now();
    if (ping_on(keep)) open.push_back(seconds_of(Clock::now() - t0) * 1e6);
  }
  if (keep >= 0) ::close(keep);
  st.layers["api.conn.setup_us"] = percentile(fresh, 50) - percentile(open, 50);
}

/// cold_streamed sends no warm traffic; re-ask answered specs (now memory
/// hits) over each transport for the per-transport warm latency.
void probe_transports(const Config& cfg, const Daemon& d, const std::vector<Request>& reqs,
                      RunState& st) {
  std::vector<Request> again;
  for (const Request& r : reqs) {
    if (!r.cold || again.size() >= 60) continue;
    Request w = r;
    w.cold = false;
    w.tcp = again.size() % 2 == 1;
    again.push_back(std::move(w));
  }
  const std::vector<Outcome> outs = send_all(d, again, 1, /*closed=*/true, cfg.seed, {});
  std::vector<double> uds;
  std::vector<double> tcp;
  for (std::size_t i = 0; i < again.size(); ++i) {
    if (outs[i].simulated != 0) st.violate("repeated cold spec simulated again: " + again[i].spec);
    (again[i].tcp ? tcp : uds).push_back((outs[i].done_s - outs[i].sent_s) * 1e3);
  }
  st.layers["api.uds.warm_p50_ms"] = percentile(uds, 50);
  st.layers["api.tcp.warm_p50_ms"] = percentile(tcp, 50);
  st.layers["gen.late_p99_ms"] = 0;  // closed loop: nothing is scheduled, nothing is late
}

constexpr const char* kAppNames[6] = {"IP", "MON", "FW", "RE", "VPN", "SYN"};
constexpr core::FlowType kAppTypes[6] = {core::FlowType::kIp,  core::FlowType::kMon,
                                         core::FlowType::kFw,  core::FlowType::kRe,
                                         core::FlowType::kVpn, core::FlowType::kSyn};

/// Single-flow scenarios per app and tier: host cost per packet, scenario
/// set-up (zero windows) and host time, simulated memory work, and the
/// statistical tier's speed-up over exact.
void probe_scenarios(const Config& cfg, RunState& st) {
  double host_s[2] = {0, 0};
  for (int tier = 0; tier < 2; ++tier) {
    const pp::sim::SimFidelity fid =
        tier == 0 ? pp::sim::SimFidelity::kExact : pp::sim::SimFidelity::kStreamed;
    const char* tname = tier == 0 ? "exact" : "streamed";
    core::ProfileStore unused;
    api::ViewStack v(daemon_session_options(cfg.threads).with_fidelity(fid), 0, unused);
    std::uint64_t packets = 0;
    std::uint64_t l3 = 0;
    std::uint64_t xcore = 0;
    double setup_s = 0;
    for (int a = 0; a < 6; ++a) {
      const core::Scenario s =
          core::Scenario::of(v.tb, v.tb.configure({core::FlowSpec::of(kAppTypes[a], 7919)}, 7919));
      Clock::time_point t0 = Clock::now();
      const core::ScenarioResult r = core::run_scenario(s);
      const double dt = seconds_of(Clock::now() - t0);
      std::uint64_t p = 0;
      for (const core::FlowMetrics& m : r) {
        p += m.delta.packets;
        l3 += m.delta.l3_refs;
        xcore += m.delta.xcore_hits;
      }
      packets += p;
      host_s[tier] += dt;
      st.layers[std::string("apps.") + kAppNames[a] + ".host_ns_per_pkt." + tname] =
          p > 0 ? dt * 1e9 / static_cast<double>(p) : 0;
      if (tier == 0 && a == 0) {
        // The exact tier is deterministic: a repetition must count the same.
        const core::ScenarioResult again = core::run_scenario(s);
        if (again.size() != r.size() || again[0].delta.l3_refs != r[0].delta.l3_refs ||
            again[0].delta.cycles != r[0].delta.cycles) {
          st.violate("exact-tier counters differ between two runs of one scenario");
        }
      }
      core::Scenario zero = s;
      zero.warmup_ms = 0;
      zero.measure_ms = 0;
      t0 = Clock::now();
      (void)core::run_scenario(zero);
      setup_s += seconds_of(Clock::now() - t0);
    }
    const double pk = static_cast<double>(packets);
    st.layers[std::string("sim.host_ns_per_pkt.") + tname] = pk > 0 ? host_s[tier] * 1e9 / pk : 0;
    // Simulated memory-system work of all six apps co-running (cross-core
    // sharing needs company): a guard that speed-only changes leave alone.
    std::vector<core::FlowSpec> all;
    for (const core::FlowType t : kAppTypes) all.push_back(core::FlowSpec::of(t, 7919));
    std::uint64_t mix_packets = 0;
    for (const core::FlowMetrics& m : core::run_scenario(core::Scenario::of(v.tb, v.tb.configure(all, 7919)))) {
      mix_packets += m.delta.packets;
      l3 += m.delta.l3_refs;
      xcore += m.delta.xcore_hits;
    }
    const double mp = static_cast<double>(packets + mix_packets);
    st.layers[std::string("sim.l3_refs_per_pkt.") + tname] = mp > 0 ? static_cast<double>(l3) / mp : 0;
    st.layers[std::string("sim.xcore_per_pkt.") + tname] = mp > 0 ? static_cast<double>(xcore) / mp : 0;
    st.layers[std::string("core.scenario.host_ms.") + tname] = host_s[tier] * 1e3 / 6;
    st.layers[std::string("core.scenario.setup_ms.") + tname] = setup_s * 1e3 / 6;
  }
  st.layers["model.tier_speedup"] = host_s[1] > 0 ? host_s[0] / host_s[1] : 0;
}

/// Store costs: a memory hit, a first touch from disk, and a miss with a
/// cache directory minus running the same scenario directly.
void probe_store(const Config& cfg, RunState& st) {
  const std::string dir = cfg.dir + "/store-probe";
  std::filesystem::remove_all(dir);
  core::ProfileStore unused;
  api::ViewStack v(daemon_session_options(cfg.threads), 0, unused);
  std::vector<core::Scenario> ss;
  for (int i = 0; i < 6; ++i) {
    core::Scenario s = core::Scenario::of(
        v.tb, v.tb.configure({core::FlowSpec::of(kAppTypes[i], 5000 + i)}, 5000 + i));
    s.warmup_ms = 0;
    s.measure_ms = 0;
    ss.push_back(std::move(s));
  }
  // A miss with a cache directory (key, simulate, checksum, persist) minus
  // the same scenario run directly; the order alternates so warm host
  // caches favour neither side.
  std::vector<double> overhead;
  for (int rep = 0; rep < 3; ++rep) {
    core::ProfileStore store(dir + "/" + std::to_string(rep));
    for (std::size_t i = 0; i < ss.size(); ++i) {
      double direct = 0;
      double miss = 0;
      for (int side = 0; side < 2; ++side) {
        const Clock::time_point t0 = Clock::now();
        if ((side == 0) == ((rep + i) % 2 == 0)) {
          (void)core::run_scenario(ss[i]);
          direct = seconds_of(Clock::now() - t0);
        } else {
          (void)store.get_or_run(ss[i]);
          miss = seconds_of(Clock::now() - t0);
        }
      }
      overhead.push_back((miss - direct) * 1e6);
    }
  }
  {
    core::ProfileStore store(dir + "/0");
    std::vector<double> hit;
    for (int rep = 0; rep < 40; ++rep) {
      const Clock::time_point t0 = Clock::now();
      for (int k = 0; k < 50; ++k) (void)store.get_or_run(ss[static_cast<std::size_t>(k) % ss.size()]);
      hit.push_back(seconds_of(Clock::now() - t0) * 1e6 / 50);
    }
    st.layers["core.store.hit_us"] = percentile(hit, 50);
  }
  st.layers["core.store.miss_overhead_us"] = percentile(overhead, 50);
  core::ProfileStore reload("", dir + "/0");  // read-only, like the fixture
  std::vector<double> load;
  for (const core::Scenario& s : ss) {
    const Clock::time_point t0 = Clock::now();
    (void)reload.get_or_run(s);
    load.push_back(seconds_of(Clock::now() - t0) * 1e6);
  }
  st.layers["core.store.disk_load_us"] = percentile(load, 50);
  std::filesystem::remove_all(dir);
}

/// Requests the replay covers: a bounded prefix of the workload, plus one
/// reference spec of each kind the prefix lacks, so every per-kind metric
/// exists on every workload.
[[nodiscard]] std::vector<Request> replay_set(const Config& cfg, const std::vector<Request>& reqs) {
  const std::size_t limit = cfg.workload == Workload::kColdStreamed ? 4 : 120;
  std::vector<Request> out;
  std::set<std::string> kinds;
  for (const Request& r : reqs) {
    if (out.size() >= limit) break;
    if (r.dup_of >= 0) continue;
    out.push_back(r);
    kinds.insert(r.kind);
  }
  const char* fid = cfg.workload == Workload::kColdStreamed ? "streamed" : "exact";
  for (const char* k : {"solo", "corun", "predict"}) {
    if (kinds.count(k) != 0) continue;
    Request r;
    r.id = 9'000'000 + out.size();
    r.kind = k;
    r.spec = std::string("{\"version\":1,\"kind\":\"") + k + "\",\"fidelity\":\"" + fid +
             "\",\"flows\":[{\"type\":\"IP\"},{\"type\":\"MON\"}]}";
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

void run_trace(const Config& cfg, const Daemon& d, const std::vector<Request>& reqs,
               const std::map<std::uint64_t, double>& served_s, RunState& st) {
  probe_connections(d, st);
  if (cfg.workload == Workload::kColdStreamed) probe_transports(cfg, d, reqs, st);

  // The replay's store is what ppd's is at the start of the window: empty
  // for cold_streamed, the read-only fixture under the warm workloads.
  const std::vector<Request> set = replay_set(cfg, reqs);
  core::ProfileStore store("", cfg.workload == Workload::kColdStreamed ? "" : cfg.fixture + "/cache");
  const api::SessionOptions base = daemon_session_options(cfg.threads);
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    st.violate("socketpair failed");
    return;
  }
  Tracer tracer(true);
  std::map<std::string, std::vector<double>> plan_by_kind;
  std::map<std::uint64_t, std::size_t> plan_of_request;
  double bytes = 0;
  for (const Request& r : set) {
    const Replayed rp = replay_one(r, store, base, tracer, fds);
    plan_by_kind[r.kind].push_back(static_cast<double>(rp.plan));
    plan_of_request[r.id] = rp.plan;
    bytes += static_cast<double>(rp.bytes);
  }

  // Self times by span name, plus per-request sums.
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = self_times_ns(spans);
  std::map<std::string, std::vector<double>> by;
  std::map<std::uint64_t, double> frame_us;
  std::map<std::uint64_t, double> run_s;  // store calls of the fan-out, summed
  std::map<std::uint64_t, double> fanout_s;
  std::vector<double> key_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self_us = self[i] / 1e3;
    by[s.name].push_back(self_us);
    const double dur_s = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    if (s.name == "api.frame.rw") frame_us[s.request] += self_us;
    if (s.name == "core.store.get_or_run") run_s[s.request] += dur_s;
    if (s.name == "core.fanout") fanout_s[s.request] = dur_s;
    if (s.name == "core.key" && plan_of_request[s.request] > 0) {
      key_us.push_back(self_us / static_cast<double>(plan_of_request[s.request]));
    }
  }
  std::vector<double> frames;
  for (const auto& [id, us] : frame_us) frames.push_back(us);
  // Host parallelism actually achieved: serial store-call time over the
  // served latency (the replay's own fan-out where nothing was served cold)
  // times SWEEP_THREADS.
  std::vector<double> util;
  for (const auto& [id, busy] : run_s) {
    const auto served = served_s.find(id);
    const double wall = served != served_s.end() ? served->second : fanout_s[id];
    if (wall > 0) util.push_back(busy / (wall * cfg.threads));
  }
  st.layers["api.frame.rw_us"] = percentile(frames, 50);
  st.layers["api.spec.parse_us"] = med(by, "api.spec.parse");
  st.layers["api.spec.canon_us"] = med(by, "api.spec.canon");
  st.layers["core.key_us"] = percentile(key_us, 50);
  for (const char* k : {"solo", "corun", "predict"}) {
    st.layers[std::string("api.session.warm_us.") + k] = med(by, std::string("api.session.") + k);
    const std::vector<double>& sizes = plan_by_kind[k];
    double sum = 0;
    for (const double p : sizes) sum += p;
    st.layers[std::string("core.plan.scenarios.") + k] =
        sizes.empty() ? 0 : sum / static_cast<double>(sizes.size());
  }
  for (const char* f : {"text", "csv", "json"}) {
    st.layers[std::string("api.render_us.") + f] = med(by, std::string("api.render.") + f);
  }
  st.layers["api.render.bytes"] = set.empty() ? 0 : bytes / static_cast<double>(set.size());
  st.layers["core.parallel.util"] = percentile(util, 50);

  // Tracing overhead: the same requests, now all memory hits, replayed with
  // spans on and off in alternation.
  std::vector<double> on;
  std::vector<double> off;
  for (int rep = 0; rep < 5; ++rep) {
    for (const bool traced : {false, true}) {
      Tracer t(traced);
      const Clock::time_point t0 = Clock::now();
      for (const Request& r : set) (void)replay_one(r, store, base, t, fds);
      (traced ? on : off).push_back(seconds_of(Clock::now() - t0));
    }
  }
  ::close(fds[0]);
  ::close(fds[1]);
  const double off_s = percentile(off, 50);
  st.layers["trace.overhead_pct"] = off_s > 0 ? (percentile(on, 50) - off_s) / off_s * 100 : 0;

  probe_scenarios(cfg, st);
  probe_store(cfg, st);

  // Spans are written once, at the end.
  std::FILE* f = std::fopen((cfg.dir + "/spans.csv").c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "name,start_ns,end_ns,parent,request,self_ns\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%s,%lld,%lld,%d,%llu,%.0f\n", s.name.c_str(),
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request), self[i]);
    }
    std::fclose(f);
  }
}

}  // namespace pb

// The live half of a run: spawn the real ppd, set it up (several times, for
// a median set-up time), drive the workload's generated requests at it over
// loopback, check every reply, and derive the end-to-end metrics from
// client-observed times only.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "api/session.hpp"
#include "bench.hpp"
#include "stats.hpp"

extern char** environ;

namespace pb {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// Latency limit that defines the warm knee, and how much the generator's
/// lateness may grow across a rung before its backlog counts as growing.
constexpr double kWarmLimitS = 0.005;
constexpr double kLateTrendS = 0.001;

/// The warm_serve ladder: the first rung is the reference rung the warm
/// percentiles come from; the rest look for the knee. A short unmeasured
/// stretch at the reference rate precedes it.
constexpr double kLadder[] = {4000, 2000, 6000, 8000};
constexpr double kReferenceShare = 0.4;  // of the window, for the reference rung
constexpr double kWarmupS = 1.0;

/// Tails are the median of per-chunk percentiles over chunks of this many
/// samples (p99 of 1000 has ten beyond it), so one host stall moves one
/// chunk rather than the run.
constexpr std::size_t kTailChunk = 1000;

/// cold_streamed runs whole blocks until the window is over and at least
/// this many answers are in (so its p75 has ten samples beyond it).
constexpr std::size_t kMinColdAnswers = 40;

[[nodiscard]] std::uint64_t field(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + std::strlen(key), nullptr, 10);
}

[[nodiscard]] pp::api::ClientOptions client_options(const pp::api::Endpoint& ep,
                                                    std::uint64_t seed) {
  pp::api::ClientOptions o;
  o.endpoint = ep;
  o.retries = 8;  // ride through shedding; a request still shed after this fails
  o.retry_base_ms = 5;
  o.retry_cap_ms = 200;
  o.retry_seed = seed;
  return o;
}

}  // namespace

void RunState::violate(std::string what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  violations.push_back(std::move(what));
}

pp::api::SessionOptions daemon_session_options(int threads) {
  pp::api::SessionOptions o = pp::api::SessionOptions::from_env();
  o.scale = pp::Scale::kQuick;
  o.fidelity = pp::sim::SimFidelity::kExact;
  o.sample_period_max.reset();
  o.threads = threads;
  o.cache_dir.clear();
  o.cache_dir_ro.clear();
  o.run_budget_ms = 0;
  return o;
}

std::string render(const pp::api::Result& r, const std::string& format) {
  if (format == "json") return r.to_json();
  if (format == "csv") return r.to_csv();
  return r.to_text() + "\n";
}

// ---------------------------------------------------------------- the daemon

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    (void)::waitpid(pid_, &status, 0);
  }
}

bool Daemon::start(const Config& cfg, const std::string& dir, const std::string& ro_cache,
                   std::string& err) {
  std::filesystem::create_directories(dir + "/cache");
  socket_path_ = dir + "/ppd.sock";
  const std::string log = dir + "/ppd.log";

  // The daemon's configuration is exactly this; nothing inherited from the
  // caller's environment may change what it computes.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    bool drop = false;
    for (const char* p : {"REPRO_", "SIM_", "SWEEP_", "PROFILE_CACHE", "PP_"}) {
      drop = drop || kv.rfind(p, 0) == 0;
    }
    if (!drop) env.push_back(kv);
  }
  env.push_back("REPRO_SCALE=quick");
  env.push_back("SWEEP_THREADS=" + std::to_string(cfg.threads));
  env.push_back("PROFILE_CACHE=" + dir + "/cache");
  if (!ro_cache.empty()) env.push_back("PROFILE_CACHE_RO=" + ro_cache);
  std::vector<char*> envp;
  for (std::string& s : env) envp.push_back(s.data());
  envp.push_back(nullptr);

  std::vector<std::string> args = {cfg.ppd, "--socket", socket_path_, "--listen", "127.0.0.1:0"};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                   0644);
  posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&pid_, cfg.ppd.c_str(), &fa, nullptr, argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    err = "cannot spawn " + cfg.ppd + ": " + std::strerror(rc);
    return false;
  }

  // ppd prints its bound TCP port once both listeners exist; then it is
  // ready when it answers a ping.
  const Clock::time_point t0 = Clock::now();
  while (since(t0) < 20) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      err = "ppd exited during start-up (see " + log + ")";
      return false;
    }
    if (tcp_port_ < 0) {
      std::ifstream in(log);
      std::string line;
      while (std::getline(in, line)) {
        const std::size_t at = line.find("listening on tcp 127.0.0.1:");
        if (at != std::string::npos) tcp_port_ = std::atoi(line.c_str() + at + 27);
      }
    }
    if (tcp_port_ > 0) {
      pp::api::ClientOptions o = client_options(tcp(), 1);
      o.retries = 1;
      pp::api::Client c(o);
      if (c.ping().ok()) return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  err = "ppd did not answer within 20 s";
  return false;
}

int Daemon::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const Clock::time_point t0 = Clock::now();
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (since(t0) > 30) {
      ::kill(pid_, SIGKILL);
      (void)::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

pp::api::Endpoint Daemon::uds() const {
  pp::api::Endpoint e;
  e.uds_path = socket_path_;
  return e;
}

pp::api::Endpoint Daemon::tcp() const {
  pp::api::Endpoint e;
  e.host = "127.0.0.1";
  e.port = tcp_port_;
  return e;
}

bool read_counters(const pp::api::Endpoint& ep, ServerCounters& out) {
  pp::api::Client c(client_options(ep, 1));
  std::string text;
  if (!c.stat(text).ok()) return false;
  out.shed = field(text, " shed=");
  out.deduped = field(text, " deduped=");
  out.queued = static_cast<int>(field(text, " queued="));
  out.simulated = field(text, "simulated=");
  out.memory_hits = field(text, "memory_hits=");
  out.coalesced = field(text, "coalesced=");
  return true;
}

// ---------------------------------------------------------------- the sender

std::vector<Outcome> send_all(const Daemon& d, const std::vector<Request>& reqs, int senders,
                              bool closed, std::uint64_t seed,
                              const std::vector<std::string>& expected) {
  std::vector<Outcome> outs(reqs.size());
  std::atomic<std::size_t> next{0};
  const pp::api::Endpoint uds = d.uds();
  const pp::api::Endpoint tcp = d.tcp();
  // Start a little in the future so every sender is parked before the first
  // scheduled send.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto at = [&](Clock::time_point t) { return std::chrono::duration<double>(t - t0).count(); };
  const auto sender = [&] {
    for (std::size_t i = next.fetch_add(1); i < reqs.size(); i = next.fetch_add(1)) {
      const Request& r = reqs[i];
      Outcome& o = outs[i];
      if (!closed) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(r.at_s)));
      }
      pp::api::Client client(client_options(r.tcp ? tcp : uds, mix64(seed ^ r.id)));
      pp::api::Reply reply;
      const Clock::time_point sent = Clock::now();
      const pp::Status st = client.run(r.spec, r.format, 0, reply);
      const Clock::time_point done = Clock::now();
      o.sent_s = at(sent);
      o.sched_s = closed ? o.sent_s : r.at_s;
      o.done_s = at(done);
      o.retries = static_cast<int>(client.slept_ms().size());
      o.transport_error = !st.ok();
      o.error = st.ok() && (reply.error.has_value() || reply.failed);
      o.simulated = field(reply.store_line, "simulated=");
      // Warm bodies are checked here, so a long window holds no reply bytes.
      if (r.item >= 0) {
        o.warm_match = static_cast<std::size_t>(r.item) < expected.size() &&
                       reply.body == expected[static_cast<std::size_t>(r.item)];
      } else {
        o.body = std::move(reply.body);
      }
    }
  };
  std::vector<std::thread> pool;
  const int n = std::max(1, std::min<int>(senders, static_cast<int>(reqs.size())));
  for (int s = 0; s < n; ++s) pool.emplace_back(sender);
  for (std::thread& t : pool) t.join();
  return outs;
}

void check_replies(const std::vector<Request>& reqs, const std::vector<Outcome>& outs,
                   RunState& st) {
  // ppd's per-request store delta is the whole store's counters across the
  // request, so a warm reply overlapping a cold request may carry the cold
  // one's simulations. Warm replies are held to simulated=0 only when no
  // cold request was in flight (client-side intervals contain server-side
  // ones); their bytes are checked always.
  std::vector<std::pair<double, double>> cold_spans;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].item < 0) cold_spans.emplace_back(outs[i].sent_s, outs[i].done_s);
  }
  const auto overlaps_cold = [&](const Outcome& o) {
    for (const auto& [b, e] : cold_spans) {
      if (b < o.done_s && o.sent_s < e) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    const Outcome& o = outs[i];
    ++st.attempted;
    if (o.transport_error || o.error) {
      ++st.failed;
      continue;
    }
    if (r.item >= 0) {
      if (o.simulated != 0 && !overlaps_cold(o)) {
        st.violate("warm reply simulated " + std::to_string(o.simulated) + " scenarios: " +
                   r.spec);
      }
      if (!o.warm_match) {
        st.violate("warm reply bytes differ from the fixture's direct run: " + r.spec + " " +
                   r.format);
      }
    } else if (r.cold && o.simulated == 0) {
      st.violate("cold reply reported simulated=0: " + r.spec);
    } else if (r.dup_of >= 0) {
      const Request& orig = reqs[static_cast<std::size_t>(r.dup_of)];
      const Outcome& oo = outs[static_cast<std::size_t>(r.dup_of)];
      if (orig.format == r.format && !oo.error && !oo.transport_error && oo.body != o.body) {
        st.violate("re-sent spec answered different bytes: " + r.spec);
      }
    }
  }
}

// ------------------------------------------------------------------ the runs

namespace {

/// Latencies (done - scheduled) of the outcomes `pick` selects.
template <typename Pick>
[[nodiscard]] std::vector<double> latencies(const std::vector<Request>& reqs,
                                            const std::vector<Outcome>& outs, Pick pick) {
  std::vector<double> v;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (pick(reqs[i])) v.push_back(outs[i].done_s - outs[i].sched_s);
  }
  return v;
}

[[nodiscard]] std::vector<Request> touch_requests() {
  std::vector<Request> out;
  const std::vector<std::string>& specs = working_set_specs();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    Request r;
    r.id = s;
    r.kind = working_set_kind(static_cast<int>(s));
    r.spec = specs[s];
    r.item = static_cast<int>(s * 3);  // the text item of spec s
    r.tcp = s % 2 == 1;
    out.push_back(std::move(r));
  }
  return out;
}

/// Polls `stat` while a window runs, for the deepest admission queue seen.
class QueuePoller {
 public:
  explicit QueuePoller(const Daemon& d) : ep_(d.uds()), thread_([this] { loop(); }) {}
  ~QueuePoller() { stop(); }
  QueuePoller(const QueuePoller&) = delete;
  QueuePoller& operator=(const QueuePoller&) = delete;

  int stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return max_queued_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!cv_.wait_for(lk, std::chrono::milliseconds(250), [&] { return done_; })) {
      lk.unlock();
      ServerCounters c;
      if (read_counters(ep_, c)) max_queued_ = std::max(max_queued_, c.queued);
      lk.lock();
    }
  }

  pp::api::Endpoint ep_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  int max_queued_ = 0;
  std::thread thread_;
};

/// Aggregate CPU time counters of the host (/proc/stat, clock ticks).
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

[[nodiscard]] CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  for (int i = 0; i < 8 && in; ++i) {
    std::uint64_t v = 0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;  // user nice system idle iowait irq softirq steal
  }
  return t;
}

struct Window {
  std::vector<Request> reqs;
  std::vector<Outcome> outs;
};

void append(Window& w, std::vector<Request> reqs, std::vector<Outcome> outs, double offset) {
  for (Outcome& o : outs) {
    o.sched_s += offset;
    o.sent_s += offset;
    o.done_s += offset;
  }
  w.reqs.insert(w.reqs.end(), reqs.begin(), reqs.end());
  w.outs.insert(w.outs.end(), outs.begin(), outs.end());
}

void cold_streamed(const Config& cfg, const Daemon& d, Window& w, RunState& st) {
  const Clock::time_point t0 = Clock::now();
  for (int block = 0;; ++block) {
    std::vector<Request> reqs = cold_streamed_block(cfg.seed, block);
    const double offset = since(t0);
    std::vector<Outcome> outs = send_all(d, reqs, 1, /*closed=*/true, cfg.seed, {});
    append(w, std::move(reqs), std::move(outs), offset);
    if (since(t0) >= cfg.seconds && w.reqs.size() >= kMinColdAnswers) break;
  }
  const double elapsed = since(t0);
  const std::vector<double> cold = latencies(w.reqs, w.outs, [](const Request& r) { return r.cold; });
  st.report["cold_p50_s"] = percentile(cold, 50);
  st.report["cold_p75_s"] = percentile(cold, 75);
  st.report["cold_p90_s"] = percentile(cold, 90);
  st.report["cold_p90_beyond"] = static_cast<double>(samples_beyond(cold.size(), 90));
  st.report["cold_n"] = static_cast<double>(cold.size());
  st.report["cold_rps"] = static_cast<double>(cold.size()) / elapsed;
  st.e2e["p50_ms"] = percentile(cold, 50) * 1e3;
  st.e2e["tail_ms"] = percentile(cold, 75) * 1e3;
}

void warm_serve(const Config& cfg, const Daemon& d, const std::vector<std::string>& expected,
                Window& w, RunState& st) {
  const int rungs = static_cast<int>(sizeof kLadder / sizeof kLadder[0]);
  double max_rps = 0;
  std::uint64_t first_id = 0;
  {
    const std::vector<Request> warmup = warm_schedule(cfg.seed, kLadder[0], 0, kWarmupS, first_id);
    first_id += warmup.size();
    const std::vector<Outcome> outs = send_all(d, warmup, cfg.threads, false, cfg.seed, expected);
    check_replies(warmup, outs, st);
  }
  for (int k = 0; k < rungs; ++k) {
    const double dur = k == 0 ? cfg.seconds * kReferenceShare
                              : cfg.seconds * (1 - kReferenceShare) / (rungs - 1);
    std::vector<Request> reqs = warm_schedule(cfg.seed, kLadder[k], 0, dur, first_id);
    first_id += reqs.size();
    ServerCounters c0;
    ServerCounters c1;
    const bool have0 = read_counters(d.uds(), c0);
    std::vector<Outcome> outs = send_all(d, reqs, cfg.threads, /*closed=*/false, cfg.seed, expected);
    const bool have1 = read_counters(d.uds(), c1);
    std::vector<double> sched;
    std::vector<double> sent;
    double last_done = 0;
    for (const Outcome& o : outs) {
      sched.push_back(o.sched_s);
      sent.push_back(o.sent_s);
      last_done = std::max(last_done, o.done_s);
    }
    const std::vector<double> lat = latencies(reqs, outs, [](const Request&) { return true; });
    const LatenessSummary late = summarize_lateness(sched, sent);
    const double p99 = chunked_percentile(lat, 99, kTailChunk);
    const std::uint64_t shed = have0 && have1 ? c1.shed - c0.shed : 1;
    const double achieved = static_cast<double>(reqs.size()) / std::max(last_done, dur);
    const bool pass = p99 <= kWarmLimitS && shed == 0 && late.trend_s <= kLateTrendS;
    std::fprintf(stderr,
                 "perfbench: warm rung %.0f req/s: n=%zu achieved=%.1f p50=%.3f ms p99=%.3f ms "
                 "shed=%llu late_p99=%.3f ms trend=%.3f ms -> %s\n",
                 kLadder[k], reqs.size(), achieved, percentile(lat, 50) * 1e3, p99 * 1e3,
                 static_cast<unsigned long long>(shed), late.p99_s * 1e3, late.trend_s * 1e3,
                 pass ? "within limit" : "beyond the knee");
    const std::string rung = std::to_string(static_cast<int>(kLadder[k]));
    st.report["warm_rung_" + rung + "_p99_ms"] = p99 * 1e3;
    if (k == 0) {
      st.report["warm_p50_ms"] = percentile(lat, 50) * 1e3;
      st.report["warm_p99_ms"] = p99 * 1e3;
      st.report["warm_n"] = static_cast<double>(lat.size());
      st.e2e["p50_ms"] = percentile(lat, 50) * 1e3;
      st.e2e["tail_ms"] = chunked_percentile(lat, 90, kTailChunk) * 1e3;
      st.layers["api.uds.warm_p50_ms"] =
          percentile(latencies(reqs, outs, [](const Request& r) { return !r.tcp; }), 50) * 1e3;
      st.layers["api.tcp.warm_p50_ms"] =
          percentile(latencies(reqs, outs, [](const Request& r) { return r.tcp; }), 50) * 1e3;
      st.layers["gen.late_p99_ms"] = late.p99_s * 1e3;
    }
    if (pass) max_rps = std::max(max_rps, achieved);
    append(w, std::move(reqs), std::move(outs), 0);
  }
  st.report["warm_max_rps"] = max_rps;
}

void mixed_serve(const Config& cfg, const Daemon& d, const std::vector<std::string>& expected,
                 Window& w, RunState& st) {
  std::vector<Request> reqs = mixed_schedule(cfg.seed, cfg.seconds);
  std::vector<Outcome> outs = send_all(d, reqs, cfg.threads, /*closed=*/false, cfg.seed, expected);
  const double elapsed = outs.empty() ? cfg.seconds : std::max(cfg.seconds, outs.back().done_s);
  const auto warm = [](const Request& r) { return r.item >= 0; };
  const auto cold = [](const Request& r) { return r.cold; };
  const std::vector<double> wl = latencies(reqs, outs, warm);
  const std::vector<double> cl = latencies(reqs, outs, cold);
  std::vector<double> sched;
  std::vector<double> sent;
  for (const Outcome& o : outs) {
    sched.push_back(o.sched_s);
    sent.push_back(o.sent_s);
  }
  st.report["warm_p50_ms"] = percentile(wl, 50) * 1e3;
  st.report["warm_p99_ms"] = chunked_percentile(wl, 99, kTailChunk) * 1e3;
  st.report["warm_n"] = static_cast<double>(wl.size());
  st.report["cold_p50_s"] = percentile(cl, 50);
  st.report["cold_n"] = static_cast<double>(cl.size());
  st.report["cold_p75_s"] = percentile(cl, 75);
  st.report["warm_p90_ms"] = chunked_percentile(wl, 90, kTailChunk) * 1e3;
  st.report["rps"] = static_cast<double>(reqs.size()) / elapsed;
  st.e2e["p50_ms"] = percentile(cl, 50) * 1e3;
  st.e2e["tail_ms"] = percentile(cl, 75) * 1e3;
  st.layers["api.uds.warm_p50_ms"] =
      percentile(latencies(reqs, outs, [](const Request& r) { return r.item >= 0 && !r.tcp; }),
                 50) * 1e3;
  st.layers["api.tcp.warm_p50_ms"] =
      percentile(latencies(reqs, outs, [](const Request& r) { return r.item >= 0 && r.tcp; }),
                 50) * 1e3;
  st.layers["gen.late_p99_ms"] = summarize_lateness(sched, sent).p99_s * 1e3;
  append(w, std::move(reqs), std::move(outs), 0);
}

/// Re-run a seeded sample of cold replies in-process on a fresh store and
/// compare bytes.
void recheck_cold(const Config& cfg, const Window& w, RunState& st) {
  std::vector<std::size_t> cold;
  for (std::size_t i = 0; i < w.reqs.size(); ++i) {
    if (w.reqs[i].cold && !w.outs[i].error && !w.outs[i].transport_error) cold.push_back(i);
  }
  Rng rng(mix64(cfg.seed ^ 0x7ec4));
  for (int k = 0; k < 2 && !cold.empty(); ++k) {
    const std::size_t pick = cold[static_cast<std::size_t>(rng.below(static_cast<int>(cold.size())))];
    const Request& r = w.reqs[pick];
    pp::core::ProfileStore store;
    pp::api::Session session(daemon_session_options(cfg.threads), &store);
    std::string err;
    const std::optional<pp::api::ExperimentSpec> spec = pp::api::ExperimentSpec::parse(r.spec, &err);
    if (!spec.has_value()) {
      st.violate("generated spec does not parse: " + err);
      continue;
    }
    if (render(session.run(*spec), r.format) != w.outs[pick].body) {
      st.violate("cold reply bytes differ from a direct in-process run: " + r.spec);
    }
  }
}

}  // namespace

void run_workload(const Config& cfg, RunState& st) {
  const bool warm_store = cfg.workload != Workload::kColdStreamed;
  std::vector<std::string> expected;
  if (warm_store && !load_expected(cfg.fixture, expected)) {
    st.violate("warm fixture missing or incomplete: " + cfg.fixture);
    return;
  }
  const std::string ro = warm_store ? cfg.fixture + "/cache" : "";

  // Set-up: spawn until ppd answers (warm workloads: until every
  // working-set key has been loaded once), several times for a median.
  const int reps = warm_store ? 5 : 15;
  std::vector<double> setups;
  std::unique_ptr<Daemon> d;
  for (int rep = 0; rep < reps; ++rep) {
    const std::string dir = cfg.dir + "/daemon-" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    d = std::make_unique<Daemon>();
    const Clock::time_point t0 = Clock::now();
    std::string err;
    if (!d->start(cfg, dir, ro, err)) {
      st.violate(err);
      return;
    }
    if (warm_store) {
      const std::vector<Request> touch = touch_requests();
      const std::vector<Outcome> outs = send_all(*d, touch, cfg.threads, false, cfg.seed, expected);
      setups.push_back(since(t0));
      RunState scratch;
      check_replies(touch, outs, scratch);
      for (std::string& v : scratch.violations) st.violate("set-up: " + v);
      if (scratch.failed > 0) st.violate("set-up: working-set touches failed");
    } else {
      setups.push_back(since(t0));
    }
    if (rep + 1 < reps && d->stop() != 0) st.violate("ppd did not drain cleanly after set-up");
  }
  st.e2e["setup_s"] = median(setups);

  Window w;
  const CpuTicks cpu0 = read_cpu_ticks();
  std::unique_ptr<QueuePoller> poller;
  if (cfg.trace) poller = std::make_unique<QueuePoller>(*d);
  switch (cfg.workload) {
    case Workload::kColdStreamed:
      cold_streamed(cfg, *d, w, st);
      break;
    case Workload::kWarmServe:
      warm_serve(cfg, *d, expected, w, st);
      break;
    case Workload::kMixedServe:
      mixed_serve(cfg, *d, expected, w, st);
      break;
  }
  const int queued_max = poller ? poller->stop() : 0;
  const CpuTicks cpu1 = read_cpu_ticks();
  // Time the hypervisor gave this machine's CPUs to someone else: a run
  // with much of it measured a busy host, not the program.
  st.report["host_steal_pct"] =
      cpu1.total > cpu0.total ? 100.0 * static_cast<double>(cpu1.steal - cpu0.steal) /
                                    static_cast<double>(cpu1.total - cpu0.total)
                              : 0;
  check_replies(w.reqs, w.outs, st);
  st.report["rss_mb"] = d->peak_rss_mb();
  st.report["fail_frac"] =
      st.attempted > 0 ? static_cast<double>(st.failed) / static_cast<double>(st.attempted) : 0;

  ServerCounters c;
  if (read_counters(d->uds(), c)) {
    st.layers["api.serve.shed"] = static_cast<double>(c.shed);
    st.layers["api.serve.deduped"] = static_cast<double>(c.deduped);
    st.layers["core.store.simulated"] = static_cast<double>(c.simulated);
    st.layers["core.store.memory_hits"] = static_cast<double>(c.memory_hits);
    st.layers["core.store.coalesced"] = static_cast<double>(c.coalesced);
  }
  st.layers["api.serve.queued_max"] = queued_max;
  double retries = 0;
  for (const Outcome& o : w.outs) retries += o.retries;
  st.layers["api.client.retries"] = retries;

  std::map<std::uint64_t, double> served;
  for (std::size_t i = 0; i < w.reqs.size(); ++i) {
    if (w.reqs[i].cold) served[w.reqs[i].id] = w.outs[i].done_s - w.outs[i].sent_s;
  }
  if (cfg.trace) run_trace(cfg, *d, w.reqs, served, st);  // live probes need the daemon
  if (d->stop() != 0) st.violate("ppd did not drain cleanly");
  recheck_cold(cfg, w, st);
}

}  // namespace pb

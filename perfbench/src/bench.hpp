// Declarations shared by pbench's translation units: the ppd
// process handle, the open/closed-loop sender, the fixture, and the traced
// replay. main.cpp wires them into the `fixture` and `run` subcommands.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "api/options.hpp"
#include "gen.hpp"

namespace pb {

/// Named metric values; the run's JSON groups them as end-to-end, per-layer
/// and report-only.
using Metrics = std::map<std::string, double>;

/// Everything one run produced: counts, failures, correctness violations.
struct RunState {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  // any entry fails the run
  Metrics e2e;
  Metrics layers;
  Metrics report;
  void violate(std::string what);
};

/// Configuration every part of a run shares.
struct Config {
  Workload workload = Workload::kColdStreamed;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;          // nproc: ppd's SWEEP_THREADS and the sender cap
  std::string ppd;          // path of the ppd binary
  std::string dir;          // scratch directory for this run (inside the checkout)
  std::string fixture;      // warm fixture directory
};

/// Session options of the daemon under test (quick scale, SWEEP_THREADS =
/// nproc, no caches): the in-process reference runs use the same ones.
[[nodiscard]] pp::api::SessionOptions daemon_session_options(int threads);

/// Body bytes exactly as ppd renders `r` in `format`.
[[nodiscard]] std::string render(const pp::api::Result& r, const std::string& format);

// ---------------------------------------------------------------- the daemon

/// One ppd child process listening on a Unix socket and loopback TCP, with
/// the daemon's default workers=2 max_queue=8.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawn ppd with a fresh read-write cache under `dir` (and `ro_cache` as
  /// PROFILE_CACHE_RO when non-empty), then wait until it answers a ping.
  [[nodiscard]] bool start(const Config& cfg, const std::string& dir, const std::string& ro_cache,
                           std::string& err);

  /// Graceful SIGTERM drain; returns the exit status (0 = clean).
  int stop();

  /// Peak resident set (VmHWM) in MB, read from /proc.
  [[nodiscard]] double peak_rss_mb() const;

  [[nodiscard]] pp::api::Endpoint uds() const;
  [[nodiscard]] pp::api::Endpoint tcp() const;

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
  int tcp_port_ = -1;
};

/// Parsed `stat` counters of a live daemon.
struct ServerCounters {
  std::uint64_t shed = 0;
  std::uint64_t deduped = 0;
  int queued = 0;
  std::uint64_t simulated = 0;    // profile store, whole daemon lifetime
  std::uint64_t memory_hits = 0;
  std::uint64_t coalesced = 0;
};
[[nodiscard]] bool read_counters(const pp::api::Endpoint& ep, ServerCounters& out);

// ---------------------------------------------------------------- the sender

/// What one request saw, in seconds from the window start.
struct Outcome {
  double sched_s = 0;
  double sent_s = 0;
  double done_s = 0;
  bool transport_error = false;
  bool error = false;  // ok=false envelope (still overloaded after retries included) or failed result
  int retries = 0;
  std::uint64_t simulated = 0;
  bool warm_match = false;  // warm request: body equals the fixture's bytes
  std::string body;         // kept for cold requests and re-sends only
};

/// Send `reqs` with up to `senders` threads, each holding one client
/// connection at a time. Open loop (`closed` false): request i goes out at
/// reqs[i].at_s after the window start, or as soon as a sender frees up.
/// Closed loop: one after another with no gaps. Warm replies are compared
/// with `expected` (indexed by working-set item) as they arrive.
[[nodiscard]] std::vector<Outcome> send_all(const Daemon& d, const std::vector<Request>& reqs,
                                            int senders, bool closed, std::uint64_t seed,
                                            const std::vector<std::string>& expected);

/// Checks replies against the fixture / the cold contract and counts
/// failures into `st`.
void check_replies(const std::vector<Request>& reqs, const std::vector<Outcome>& outs,
                   RunState& st);

// ---------------------------------------------------------------- the fixture

/// Simulate the warm working set into `dir`/cache and record every item's
/// rendered bytes; no-op when the fixture is already complete.
[[nodiscard]] bool build_fixture(const std::string& dir, int threads, std::string& err);
[[nodiscard]] bool load_expected(const std::string& dir, std::vector<std::string>& out);

// ------------------------------------------------------------------ the runs

/// Drive the configured workload against a real ppd and fill `st`.
void run_workload(const Config& cfg, RunState& st);

/// The traced in-process replay and per-layer probes (trace runs only);
/// `d` is still serving, for the connection probe. `served_s` maps cold
/// request ids to their served latency.
void run_trace(const Config& cfg, const Daemon& d, const std::vector<Request>& reqs,
               const std::map<std::uint64_t, double>& served_s, RunState& st);

}  // namespace pb

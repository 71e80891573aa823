// ppd — the persistent prediction server (NSD-style server/control split).
//
// A Server holds one warm ProfileStore in memory and answers ExperimentSpec
// requests over a Unix-domain socket using the length-prefixed framing in
// api/frame.hpp. The robustness envelope is the point (docs/ppd.md):
//
//   * per-request wall-clock deadlines (envelope `deadline_ms`, defaulting
//     to the spec's `budget_ms`) enforced between scenarios — a deadlined
//     request returns a structured budget_exceeded result, never a hung
//     client;
//   * a bounded admission queue with deterministic overload shedding: at
//     most `workers` requests execute, at most `max_queue` more wait;
//     beyond that the daemon answers a structured `overloaded` error with a
//     retry-after hint instead of queueing unboundedly;
//   * malformed or oversized frames poison only the connection that sent
//     them (best-effort protocol_error response, then close);
//   * single-flight dedup of identical in-flight requests across
//     connections, keyed on canonical spec + deadline: a follower holds no
//     worker slot and renders its own format from the leader's Result (the
//     store dedups scenarios; this layer dedups requests);
//   * graceful drain (begin_drain, wired to SIGTERM by the ppd binary):
//     stop accepting, finish or deadline-out in-flight work, flush store
//     stats to stderr, return 0 — and clean recovery on restart: a stale
//     socket file is replaced, the PROFILE_CACHE reloads warm, corrupt
//     entries are quarantined by the store exactly as in one-shot mode.
//
// Every failure path carries a serve.* fault-injection site
// (base/fault.hpp), so each one has a deterministic PP_FAULTS test
// (tests/api/serve_test.cpp, tests/serve/ppd_lifecycle_test.sh).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/frame.hpp"
#include "api/session.hpp"

namespace pp::api {

class Json;

struct ServerOptions {
  /// Unix-domain listener ("" = no UDS listener).
  std::string socket_path;

  /// IPv4 TCP listener: port < 0 disables it (the default), port 0 asks
  /// the kernel for a free port (Server::tcp_port() reports the choice),
  /// 1..65535 binds that port. The empty host means 127.0.0.1 — the ppd1
  /// protocol has NO authentication, so anything but loopback earns a
  /// stderr warning (docs/ppd.md, Transports). At least one of the two
  /// listeners must be configured.
  std::string listen_host;
  int listen_port = -1;

  /// TCP accept backlog (listen(2)); also used for the UDS listener.
  int tcp_backlog = 64;

  /// Concurrently *executing* requests (the admission gate's slot count).
  int workers = 2;

  /// Requests allowed to wait for a slot before the daemon sheds. The
  /// bound is what turns a flood into deterministic `overloaded` answers
  /// instead of an unbounded queue.
  int max_queue = 8;

  /// Hint sent with every `overloaded` response; ppctl's backoff honors it
  /// as a floor under its seeded exponential schedule. Non-positive =
  /// no hint is emitted (normalize() folds negatives to 0 so a bad config
  /// can never put a nonsensical retry_after_ms on the wire).
  int retry_after_ms = 50;

  /// Frame payload ceiling (oversized frames poison their connection).
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Clamp every numeric knob to its sane range (workers >= 1 so admission
  /// can always make progress, max_queue >= 0, retry_after_ms >= 0,
  /// tcp_backlog in [1, 4096], max_frame_bytes >= 64). The Server
  /// constructor applies this, so no caller-supplied value can hang
  /// admission or leak a negative hint into the `overloaded` envelope.
  void normalize();

  /// Session configuration (scale/fidelity/threads/caches). The Server's
  /// top-level Session owns the daemon's one store over `cache_dir` /
  /// `cache_dir_ro`; every request's Session borrows it.
  SessionOptions session = SessionOptions::from_env();
};

/// Service-time histogram behind `ppctl stat`: fixed log-linear buckets
/// (16 per power of two, HdrHistogram style) plus an exact count and max,
/// so memory stays constant and the percentiles keep moving however long
/// the daemon runs. A reported percentile is its bucket's upper bound
/// (within 1/16 of the true sample), capped at the max. Thread-safe.
class LatencyHistogram {
 public:
  void record(std::uint64_t us);

  /// "count=N p50=… p90=… p99=… max=…", in microseconds.
  [[nodiscard]] std::string summary() const;

 private:
  static constexpr int kSubBits = 4;  // 16 sub-buckets per power of two
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) << kSubBits;

  [[nodiscard]] static std::size_t bucket(std::uint64_t us);
  [[nodiscard]] static std::uint64_t upper_bound(std::size_t bucket);

  mutable std::mutex mu_;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

class Server {
 public:
  struct Stats {
    std::uint64_t served = 0;            // responses sent (every op)
    std::uint64_t specs_ok = 0;          // run requests answered with an ok result
    std::uint64_t specs_failed = 0;      // run requests answered with an error result
    std::uint64_t shed = 0;              // run requests refused with `overloaded`
    std::uint64_t deduped_inflight = 0;  // run requests served by an identical in-flight one
    std::uint64_t protocol_errors = 0;   // malformed/oversized frames (connection poisoned)
    std::uint64_t deadline_refused = 0;  // deadlined out while queued or between scenarios
    int active = 0;                      // currently executing
    int queued = 0;                      // currently waiting for a slot
    bool draining = false;
  };

  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on every configured transport: opts.socket_path (an
  /// existing *socket* file — e.g. left by a kill -9 — is replaced; any
  /// other file type is an error) and/or the TCP endpoint
  /// opts.listen_host:opts.listen_port.
  [[nodiscard]] bool listen(std::string* error);

  /// The bound TCP port after listen() (resolves port 0), or -1 when no
  /// TCP listener is configured.
  [[nodiscard]] int tcp_port() const { return tcp_port_; }

  /// Accept/serve until begin_drain(), then finish in-flight work, flush
  /// final store stats to stderr and return 0. Call listen() first.
  int serve();

  /// Async-signal-safe drain trigger (the ppd binary calls this from its
  /// SIGTERM/SIGINT handler; tests call it directly).
  void begin_drain();

  [[nodiscard]] Stats stats() const;

  /// The `ppctl stat` payload: request counters, the store's stats_line
  /// verbatim (same "profile store:" grep surface as one-shot ppctl), the
  /// fault-injector line when enabled, and service-latency percentiles.
  [[nodiscard]] std::string stats_text() const;

  [[nodiscard]] core::ProfileStore& store() const { return session_->store(); }
  [[nodiscard]] const ServerOptions& options() const { return opts_; }

 private:
  enum class Admit : std::uint8_t { kAdmitted, kShed, kDeadline };

  struct Response {
    std::string envelope;  // single-line JSON
    std::string body;      // raw bytes, printed verbatim by the client
    bool poison = false;   // close the connection after responding
  };

  /// What one execution hands every request that shared it; each request
  /// renders its own format from `result`.
  struct Outcome {
    std::string envelope;                  // single-line JSON
    std::shared_ptr<const Result> result;  // null when shed (no body)
  };

  struct Flight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    Outcome outcome;
  };

  [[nodiscard]] bool listen_uds(std::string* error);
  [[nodiscard]] bool listen_tcp(std::string* error);
  void handle_connection(int fd);
  [[nodiscard]] Response dispatch(const std::string& payload);
  [[nodiscard]] Response handle_run(const Json& envelope, const std::string& body);
  [[nodiscard]] Outcome execute_run(const ExperimentSpec& spec,
                                    std::chrono::steady_clock::time_point deadline);
  [[nodiscard]] Admit admit(std::chrono::steady_clock::time_point deadline);
  void release_slot();
  void record_latency(std::chrono::steady_clock::time_point start);

  ServerOptions opts_;
  std::unique_ptr<Session> session_;  // store owner/selector; per-request
                                      // sessions borrow its store
  int listen_fd_ = -1;      // UDS listener (-1 = none)
  int tcp_listen_fd_ = -1;  // TCP listener (-1 = none)
  int tcp_port_ = -1;       // bound TCP port after listen()
  int wake_pipe_[2] = {-1, -1};  // self-pipe: begin_drain() -> poll() wakeup
  std::atomic<bool> draining_{false};

  // Connection threads are detached; conn_threads_ counts the live ones so
  // drain can wait for the last handler without the server accumulating one
  // joinable std::thread per connection for its whole lifetime (the load
  // bench opens thousands).
  std::mutex conns_mu_;
  std::condition_variable conns_cv_;
  std::vector<int> conns_;  // open connection fds (drain shuts down reads)
  int conn_threads_ = 0;

  mutable std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  int active_ = 0;
  int queued_ = 0;

  std::mutex flights_mu_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;

  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> specs_ok_{0};
  std::atomic<std::uint64_t> specs_failed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deduped_inflight_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> deadline_refused_{0};

  LatencyHistogram latency_us_;  // service time of every run request
};

}  // namespace pp::api

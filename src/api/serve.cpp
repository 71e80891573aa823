#include "api/serve.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "api/client.hpp"  // resolve_ipv4 — client dial and server bind must agree
#include "api/json.hpp"
#include "base/fault.hpp"
#include "base/strings.hpp"

namespace pp::api {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::string error_envelope(const Error& e, int retry_after_ms) {
  std::string out = "{\"ok\":false,";
  if (retry_after_ms > 0) out += strformat("\"retry_after_ms\":%d,", retry_after_ms);
  out += "\"error\":" + e.to_json() + "}";
  return out;
}

[[nodiscard]] Error to_error(const Status& s) { return Error{s.kind, s.site, s.detail}; }

/// A structured failed Result for a request refused before execution
/// (deadlined out in the admission queue): same shape a failed Session::run
/// produces, so every client render path works on it.
[[nodiscard]] Result refusal_result(const ExperimentSpec& spec, const SessionOptions& base,
                                    Error e) {
  Result r;
  r.kind = spec.kind;
  r.name = spec.name;
  const SessionOptions eff = apply_spec(spec, base);
  r.scale = eff.scale;
  r.fidelity = eff.fidelity;
  r.seeds = spec.seeds > 0 ? spec.seeds : default_seeds(eff.scale);
  r.error = std::move(e);
  return r;
}

}  // namespace

void ServerOptions::normalize() {
  if (workers < 1) workers = 1;          // 0 workers would hang admission forever
  if (max_queue < 0) max_queue = 0;
  if (retry_after_ms < 0) retry_after_ms = 0;  // 0 = hint absent, never negative
  if (tcp_backlog < 1) tcp_backlog = 1;
  if (tcp_backlog > 4096) tcp_backlog = 4096;
  if (max_frame_bytes < 64) max_frame_bytes = 64;
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), session_(std::make_unique<Session>(opts_.session)) {
  opts_.normalize();
}

Server::~Server() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(opts_.socket_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) ::close(tcp_listen_fd_);
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) ::close(wake_pipe_[i]);
  }
}

bool Server::listen_uds(std::string* error) {
  sockaddr_un addr{};
  if (opts_.socket_path.size() >= sizeof addr.sun_path) {
    if (error != nullptr) {
      *error = strformat("socket path must be 1..%zu bytes", sizeof addr.sun_path - 1);
    }
    return false;
  }
  struct stat st {};
  if (::lstat(opts_.socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      if (error != nullptr) *error = opts_.socket_path + " exists and is not a socket";
      return false;
    }
    // Stale socket file — e.g. a previous daemon killed with SIGKILL never
    // unlinked it. Replacing it is what makes restart-on-the-same-paths
    // recovery work without manual cleanup.
    ::unlink(opts_.socket_path.c_str());
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = strformat("socket: %s", std::strerror(errno));
    return false;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(), opts_.socket_path.size());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, opts_.tcp_backlog) != 0) {
    if (error != nullptr) {
      *error = strformat("cannot listen on %s: %s", opts_.socket_path.c_str(),
                         std::strerror(errno));
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  return true;
}

bool Server::listen_tcp(std::string* error) {
  sockaddr_in addr{};
  if (!resolve_ipv4(opts_.listen_host, addr.sin_addr)) {
    if (error != nullptr) {
      *error = strformat("\"%s\" is not an IPv4 address (or \"localhost\")",
                         opts_.listen_host.c_str());
    }
    return false;
  }
  if (opts_.listen_port > 65535) {
    if (error != nullptr) *error = strformat("TCP port %d is outside [0, 65535]", opts_.listen_port);
    return false;
  }
  tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (tcp_listen_fd_ < 0) {
    if (error != nullptr) *error = strformat("socket: %s", std::strerror(errno));
    return false;
  }
  const int one = 1;
  (void)::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.listen_port));
  if (::bind(tcp_listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(tcp_listen_fd_, opts_.tcp_backlog) != 0) {
    if (error != nullptr) {
      *error = strformat("cannot listen on %s:%d: %s",
                         opts_.listen_host.empty() ? "127.0.0.1" : opts_.listen_host.c_str(),
                         opts_.listen_port, std::strerror(errno));
    }
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  // Loopback is the only safe default: the ppd1 protocol has no
  // authentication, so a wider bind is an explicit operator decision.
  if (ntohl(addr.sin_addr.s_addr) >> 24 != 127) {
    std::fprintf(stderr,
                 "[ppd] WARNING: TCP listener bound to %s:%d — the ppd1 protocol has no "
                 "authentication; restrict this to trusted networks (docs/ppd.md)\n",
                 opts_.listen_host.c_str(), tcp_port_);
  }
  return true;
}

bool Server::listen(std::string* error) {
  const bool want_uds = !opts_.socket_path.empty();
  const bool want_tcp = opts_.listen_port >= 0;
  if (!want_uds && !want_tcp) {
    if (error != nullptr) *error = "no listener configured (need a socket path and/or a TCP port)";
    return false;
  }
  if (want_uds && !listen_uds(error)) return false;
  if (want_tcp && !listen_tcp(error)) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      ::unlink(opts_.socket_path.c_str());
    }
    return false;
  }
  if (::pipe2(wake_pipe_, O_CLOEXEC) != 0) {
    if (error != nullptr) *error = strformat("pipe2: %s", std::strerror(errno));
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      ::unlink(opts_.socket_path.c_str());
    }
    if (tcp_listen_fd_ >= 0) {
      ::close(tcp_listen_fd_);
      tcp_listen_fd_ = -1;
    }
    return false;
  }
  return true;
}

void Server::begin_drain() {
  // Async-signal-safe by construction: one atomic store + one pipe write.
  draining_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char b = 'x';
    (void)!::write(wake_pipe_[1], &b, 1);
  }
}

int Server::serve() {
  for (;;) {
    // Poll order: UDS listener, TCP listener, wake pipe — absent listeners
    // get fd -1, which poll(2) ignores.
    pollfd fds[3] = {{listen_fd_, POLLIN, 0}, {tcp_listen_fd_, POLLIN, 0},
                     {wake_pipe_[0], POLLIN, 0}};
    const int n = ::poll(fds, 3, -1);
    if (n < 0) {
      if (errno == EINTR) {
        if (draining_.load(std::memory_order_acquire)) break;
        continue;
      }
      std::fprintf(stderr, "[ppd] poll failed: %s\n", std::strerror(errno));
      break;
    }
    if (draining_.load(std::memory_order_acquire) || (fds[2].revents & POLLIN) != 0) break;
    for (int i = 0; i < 2; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const bool tcp = i == 1;
      const int cfd = ::accept4(fds[i].fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (cfd < 0) {
        if (errno != EINTR) {
          std::fprintf(stderr, "[ppd] accept failed: %s\n", std::strerror(errno));
        }
        continue;
      }
      if (pp::fault("serve.accept")) {
        std::fprintf(stderr, "[ppd] dropping accepted connection (injected serve.accept fault)\n");
        ::close(cfd);
        continue;
      }
      if (tcp) {
        const int one = 1;
        (void)::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      }
      {
        std::lock_guard<std::mutex> lk(conns_mu_);
        ++conn_threads_;
      }
      // Detached: drain waits on conn_threads_ instead of keeping one
      // joinable std::thread alive per connection for the daemon's lifetime.
      std::thread([this, cfd] { handle_connection(cfd); }).detach();
    }
  }

  // Drain: stop accepting (sockets closed, UDS path unlinked so new
  // connects fail fast), wake every blocked connection read, then let
  // in-flight requests finish or deadline out. Responses still flow — only
  // the read half shuts.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opts_.socket_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  {
    std::unique_lock<std::mutex> lk(conns_mu_);
    for (const int fd : conns_) ::shutdown(fd, SHUT_RD);
    conns_cv_.wait(lk, [&] { return conn_threads_ == 0; });
  }
  std::fprintf(stderr, "%s", stats_text().c_str());
  return 0;
}

void Server::handle_connection(int fd) {
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns_.push_back(fd);
  }
  std::string payload;
  for (;;) {
    Status st;
    const FrameRead r = read_frame(fd, payload, opts_.max_frame_bytes, st, FrameSide::kServer);
    if (r == FrameRead::kEof) break;
    if (r == FrameRead::kIoError) {
      std::fprintf(stderr, "[ppd] dropping connection: %s\n", st.detail.c_str());
      break;
    }
    if (r == FrameRead::kProtocolError) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "[ppd] poisoning connection: %s\n", st.detail.c_str());
      (void)write_frame(fd, error_envelope(to_error(st), 0), FrameSide::kServer);
      break;
    }
    const Response resp = dispatch(payload);
    const Status w = write_frame(fd, join_payload(resp.envelope, resp.body), FrameSide::kServer);
    if (!w.ok()) {
      std::fprintf(stderr, "[ppd] dropping connection: %s\n", w.detail.c_str());
      break;
    }
    served_.fetch_add(1, std::memory_order_relaxed);
    if (resp.poison) break;
  }
  {
    // notify under the lock: serve()'s drain wait may destroy this Server
    // (and the cv) the moment conn_threads_ hits zero.
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns_.erase(std::remove(conns_.begin(), conns_.end(), fd), conns_.end());
    --conn_threads_;
    conns_cv_.notify_all();
  }
  ::close(fd);
}

Server::Response Server::dispatch(const std::string& payload) {
  std::string envelope_text;
  std::string body;
  split_payload(payload, envelope_text, body);
  std::string err;
  const std::optional<Json> envelope = Json::parse(envelope_text, &err);
  if (!envelope.has_value() || !envelope->is_object()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    return {error_envelope(Error{StatusKind::kProtocolError, "serve.frame",
                                 "request envelope is not a JSON object: " + err},
                           0),
            "", true};
  }
  const Json* op = envelope->find("op");
  const std::string opname = (op != nullptr && op->is_string()) ? op->as_string() : "";
  if (opname == "ping") return {"{\"ok\":true}", "", false};
  if (opname == "stat") return {"{\"ok\":true}", stats_text(), false};
  if (opname == "run") return handle_run(*envelope, body);
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  return {error_envelope(Error{StatusKind::kProtocolError, "serve.frame",
                               "unknown op \"" + opname + "\""},
                         0),
          "", true};
}

Server::Response Server::handle_run(const Json& envelope, const std::string& body) {
  const Clock::time_point start = Clock::now();
  std::string format = "text";
  if (const Json* f = envelope.find("format"); f != nullptr) {
    if (!f->is_string() || (f->as_string() != "text" && f->as_string() != "csv" &&
                            f->as_string() != "json")) {
      specs_failed_.fetch_add(1, std::memory_order_relaxed);
      return {error_envelope(Error{StatusKind::kInvalidSpec, "serve.request",
                                   "unknown format (expected text|csv|json)"},
                             0),
              "", false};
    }
    format = f->as_string();
  }
  std::string err;
  const std::optional<ExperimentSpec> spec = ExperimentSpec::parse(body, &err);
  if (!spec.has_value()) {
    // A well-framed request with a bad spec fails structurally and keeps
    // the connection: error isolation is per request, not per connection.
    specs_failed_.fetch_add(1, std::memory_order_relaxed);
    return {error_envelope(Error{StatusKind::kInvalidSpec, "serve.request", err}, 0), "", false};
  }
  double deadline_ms = 0;
  if (const Json* d = envelope.find("deadline_ms"); d != nullptr && d->is_number()) {
    deadline_ms = d->as_double();
  }
  if (deadline_ms <= 0 && spec->budget_ms.has_value()) deadline_ms = *spec->budget_ms;
  Clock::time_point deadline{};
  if (deadline_ms > 0) {
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(deadline_ms));
  }

  // Single-flight across connections: identical (spec, format, deadline
  // budget) requests share one execution. The first arrival leads; the rest
  // wait for its response. Distinct deadlines never share — a tight-deadline
  // request must not inherit a refusal earned by someone else's budget.
  const std::string key =
      strformat("%s\037%s\037%.3f", spec->to_json().c_str(), format.c_str(), deadline_ms);
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lk(flights_mu_);
    auto [it, inserted] = flights_.try_emplace(key);
    if (inserted) it->second = std::make_shared<Flight>();
    flight = it->second;
    leader = inserted;
  }
  if (!leader) {
    deduped_inflight_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lk(flight->m);
    flight->cv.wait(lk, [&] { return flight->done; });
    Response resp = flight->response;
    lk.unlock();
    record_latency(start);
    return resp;
  }
  Response resp = execute_run(*spec, format, deadline);
  {
    std::lock_guard<std::mutex> lk(flights_mu_);
    flights_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lk(flight->m);
    flight->response = resp;
    flight->done = true;
  }
  flight->cv.notify_all();
  record_latency(start);
  return resp;
}

Server::Admit Server::admit(Clock::time_point deadline) {
  std::unique_lock<std::mutex> lk(admit_mu_);
  if (active_ < opts_.workers) {
    ++active_;
    return Admit::kAdmitted;
  }
  if (queued_ >= opts_.max_queue) return Admit::kShed;
  ++queued_;
  bool got = true;
  if (deadline == Clock::time_point{}) {
    admit_cv_.wait(lk, [&] { return active_ < opts_.workers; });
  } else {
    got = admit_cv_.wait_until(lk, deadline, [&] { return active_ < opts_.workers; });
  }
  --queued_;
  if (!got) {
    // The deadline may have raced a release_slot() notify meant for us; a
    // slot could be free with other waiters still parked. Pass the wakeup
    // on, or one waiter can stall until the next release (lost wakeup).
    admit_cv_.notify_one();
    return Admit::kDeadline;
  }
  ++active_;
  return Admit::kAdmitted;
}

void Server::release_slot() {
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
    --active_;
  }
  admit_cv_.notify_one();
}

Server::Response Server::execute_run(const ExperimentSpec& spec, const std::string& format,
                                     Clock::time_point deadline) {
  switch (admit(deadline)) {
    case Admit::kShed: {
      shed_.fetch_add(1, std::memory_order_relaxed);
      std::string detail = strformat("admission queue full (%d executing, %d queued)",
                                     opts_.workers, opts_.max_queue);
      if (opts_.retry_after_ms > 0) detail += strformat("; retry in %d ms", opts_.retry_after_ms);
      return {error_envelope(Error{StatusKind::kOverloaded, "serve.admit", std::move(detail)},
                             opts_.retry_after_ms),
              "", false};
    }
    case Admit::kDeadline: {
      deadline_refused_.fetch_add(1, std::memory_order_relaxed);
      specs_failed_.fetch_add(1, std::memory_order_relaxed);
      const Result r = refusal_result(
          spec, opts_.session,
          Error{StatusKind::kBudgetExceeded, "serve.admit",
                "wall-clock deadline expired while queued for admission"});
      const std::string none = core::ProfileStore::stats_line(core::ProfileStore::Stats{});
      return {strformat("{\"ok\":true,\"failed\":true,\"store\":%s}", json_quote(none).c_str()),
              render_result(r, format), false};
    }
    case Admit::kAdmitted:
      break;
  }

  const core::ProfileStore::Stats before = store().stats();
  SessionOptions req = opts_.session;
  req.wall_deadline = deadline;
  Session session(req, &store());
  const Result r = session.run(spec);
  const std::string delta = core::ProfileStore::stats_line(
      core::ProfileStore::Stats::delta(store().stats(), before));
  if (r.ok()) {
    specs_ok_.fetch_add(1, std::memory_order_relaxed);
  } else {
    specs_failed_.fetch_add(1, std::memory_order_relaxed);
    if (r.error->site == "scenario.deadline") {
      deadline_refused_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Response resp{strformat("{\"ok\":true,\"failed\":%s,\"store\":%s}", r.ok() ? "false" : "true",
                          json_quote(delta).c_str()),
                render_result(r, format), false};
  release_slot();
  return resp;
}

void Server::record_latency(Clock::time_point start) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start).count();
  latency_us_.record(us < 0 ? 0U : static_cast<std::uint64_t>(us));
}

std::size_t LatencyHistogram::bucket(std::uint64_t us) {
  if (us < (1U << kSubBits)) return static_cast<std::size_t>(us);
  const int shift = std::bit_width(us) - 1 - kSubBits;
  return (static_cast<std::size_t>(shift + 1) << kSubBits) +
         static_cast<std::size_t>((us >> shift) & ((1U << kSubBits) - 1));
}

std::uint64_t LatencyHistogram::upper_bound(std::size_t bucket) {
  if (bucket < (1U << kSubBits)) return bucket;
  const auto shift = static_cast<int>(bucket >> kSubBits) - 1;
  const std::uint64_t lower = static_cast<std::uint64_t>((1U << kSubBits) +
                                                         (bucket & ((1U << kSubBits) - 1)))
                              << shift;
  return lower + ((std::uint64_t{1} << shift) - 1);
}

void LatencyHistogram::record(std::uint64_t us) {
  std::lock_guard<std::mutex> lk(mu_);
  ++counts_[bucket(us)];
  ++count_;
  max_ = std::max(max_, us);
}

std::string LatencyHistogram::summary() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Same rank rule as a sorted sample vector: index p * (n - 1), rounded.
  const auto pct = [&](double p) -> unsigned long long {
    if (count_ == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(p * static_cast<double>(count_ - 1) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen > rank) return std::min(upper_bound(b), max_);
    }
    return max_;
  };
  return strformat("count=%llu p50=%llu p90=%llu p99=%llu max=%llu",
                   static_cast<unsigned long long>(count_), pct(0.50), pct(0.90), pct(0.99),
                   static_cast<unsigned long long>(max_));
}

Server::Stats Server::stats() const {
  Stats s;
  s.served = served_.load(std::memory_order_relaxed);
  s.specs_ok = specs_ok_.load(std::memory_order_relaxed);
  s.specs_failed = specs_failed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.deduped_inflight = deduped_inflight_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.deadline_refused = deadline_refused_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
    s.active = active_;
    s.queued = queued_;
  }
  s.draining = draining_.load(std::memory_order_acquire);
  return s;
}

std::string Server::stats_text() const {
  const Stats s = stats();
  std::string out = strformat(
      "[ppd] requests: served=%llu ok=%llu failed=%llu shed=%llu deduped=%llu "
      "protocol_errors=%llu deadline_refused=%llu active=%d queued=%d draining=%d\n",
      static_cast<unsigned long long>(s.served), static_cast<unsigned long long>(s.specs_ok),
      static_cast<unsigned long long>(s.specs_failed), static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.deduped_inflight),
      static_cast<unsigned long long>(s.protocol_errors),
      static_cast<unsigned long long>(s.deadline_refused), s.active, s.queued,
      s.draining ? 1 : 0);
  out += "[ppd] profile store: " + store().stats_line() + "\n";
  if (FaultInjector::global().enabled()) {
    out += "[ppd] faults: " + FaultInjector::global().stats_line() + "\n";
  }
  out += "[ppd] latency_us: " + latency_us_.summary() + "\n";
  return out;
}

}  // namespace pp::api

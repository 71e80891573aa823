// ppd client: one-request-per-connection transport with deterministic
// seeded retry backoff.
//
// The retry policy is the client half of the daemon's overload story
// (docs/ppd.md): connection failures, mid-stream drops and structured
// `overloaded` responses all retry on an exponential schedule with
// deterministic jitter — delay for attempt k is drawn from
// [nominal/2, nominal] where nominal = min(cap, base * 2^(k-1)), using a
// seeded hash of the attempt number, so a fixed --retry-seed reproduces the
// exact sleep sequence (tests/api/backoff_test.cpp asserts the schedule).
// A server-supplied retry_after_ms hint acts as a floor under the drawn
// delay. Protocol errors never retry: a peer that is not speaking ppd1
// will not start speaking it on attempt 3.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/frame.hpp"
#include "api/session.hpp"

struct in_addr;  // <netinet/in.h>

namespace pp::api {

/// Resolve a host string to an IPv4 address without DNS: dotted-quad
/// literals plus "" / "localhost" (both 127.0.0.1). Shared by the client
/// dial and the server bind so both sides accept exactly the same hosts.
[[nodiscard]] bool resolve_ipv4(const std::string& host, in_addr& out);

/// Deterministic jittered exponential backoff: the delay (ms) before retry
/// number `attempt` (1-based). Pure — the whole schedule is a function of
/// (base_ms, cap_ms, seed). The doubling clamps to cap_ms before any
/// widening can wrap, so the schedule is well-defined for every attempt
/// value up to INT_MAX (golden-tested at attempt >= 64).
[[nodiscard]] int backoff_delay_ms(int attempt, int base_ms, int cap_ms, std::uint64_t seed);

/// One daemon address: a Unix-domain socket path, or an IPv4 TCP endpoint.
struct Endpoint {
  std::string uds_path;  // UDS when non-empty; TCP (host, port) otherwise
  std::string host;
  int port = 0;

  [[nodiscard]] bool is_tcp() const { return uds_path.empty(); }
  [[nodiscard]] std::string describe() const;
};

/// Parse a `--connect`/`--listen` endpoint string. A string containing ':'
/// is an IPv4 TCP endpoint "HOST:PORT" (empty or "localhost" host means
/// 127.0.0.1; the port is a strict decimal in [1, 65535], or [0, 65535]
/// with `allow_ephemeral_port` — 0 asks the kernel for a free port, listen
/// side only). Anything else is a Unix-domain socket path, which therefore
/// cannot contain ':'. Returns false with a named error on a malformed
/// endpoint — a bad port is never silently defaulted or wrapped.
[[nodiscard]] bool parse_endpoint(const std::string& s, Endpoint& out, std::string& err,
                                  bool allow_ephemeral_port = false);

struct ClientOptions {
  /// Where the daemon lives (UDS path, or TCP host:port). The TCP dial sets
  /// TCP_NODELAY — requests are single small frames; Nagle only adds
  /// latency here.
  Endpoint endpoint;

  /// Total attempts per request (connect + send + receive). 1 = no retries.
  int retries = 5;

  int retry_base_ms = 25;
  int retry_cap_ms = 2000;
  std::uint64_t retry_seed = 1;

  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Test seam: how to sleep between attempts (default: real sleep).
  std::function<void(int ms)> sleep_ms;
};

/// One parsed daemon response.
struct Reply {
  bool failed = false;         // run result carried a structured error
  std::string store_line;      // per-request profile-store delta (run only)
  std::string body;            // raw bytes to print verbatim
  std::optional<Error> error;  // set when the daemon answered ok=false
  int retry_after_ms = 0;      // hint accompanying an `overloaded` error
};

/// Ceiling of a request's envelope `deadline_ms` (one day): `ppctl
/// --deadline-ms` enforces it and ppd refuses anything above it.
inline constexpr int kMaxDeadlineMs = 86'400'000;

class Client {
 public:
  explicit Client(ClientOptions opts);

  /// Execute one spec remotely. Returns kOk when a definitive response
  /// envelope arrived (inspect reply.error for structural failures); a
  /// non-ok Status means the transport failed for good — retries exhausted
  /// on connect failure, dropped connection, or overload — or the peer
  /// broke protocol (never retried).
  [[nodiscard]] Status run(const std::string& spec_json, const std::string& format,
                           double deadline_ms, Reply& reply);

  /// Fetch the daemon's stats text (`ppctl stat`).
  [[nodiscard]] Status stat(std::string& text);

  /// Liveness probe.
  [[nodiscard]] Status ping();

  /// Delays actually slept, in order (observability + backoff tests).
  [[nodiscard]] const std::vector<int>& slept_ms() const { return slept_ms_; }

 private:
  [[nodiscard]] Status request(const std::string& envelope, const std::string& body,
                               Reply& reply);
  [[nodiscard]] Status attempt(const std::string& payload, Reply& reply, bool& retryable);

  ClientOptions opts_;
  std::vector<int> slept_ms_;
};

}  // namespace pp::api

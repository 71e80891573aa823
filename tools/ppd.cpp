// ppd — the persistent prediction daemon (server half of the NSD-style
// server/control split; ppctl --connect is the control half).
//
// Holds one warm ProfileStore for its whole lifetime and serves
// ExperimentSpec requests over a Unix-domain socket (framing and failure
// semantics: docs/ppd.md). The process is deliberately thin: flag parsing
// and signal wiring live here; every serving decision — deadlines,
// admission, shedding, single-flight, drain — lives in api::Server so the
// in-process tests exercise the real code.
//
//   ppd --socket PATH [--listen HOST:PORT] [--workers N] [--max-queue N]
//       [--retry-after-ms N] [--max-frame-bytes N] [--backlog N]
//
// --listen adds an IPv4 TCP listener speaking the same ppd1 framing as the
// Unix socket (port 0 = kernel-chosen; the bound port prints to stderr).
// The ppd1 protocol has no authentication — bind loopback (the default
// host) unless the network is trusted; see docs/ppd.md, Transports.
//
// Session configuration comes from the environment exactly like one-shot
// ppctl (REPRO_SCALE, SIM_FIDELITY, PROFILE_CACHE, PROFILE_CACHE_RO,
// PP_RUN_BUDGET, PP_FAULTS...), so a daemon restarted on the same
// PROFILE_CACHE starts warm and a result served by ppd is byte-identical
// to the same spec run directly.
//
// SIGTERM/SIGINT begin a graceful drain: stop accepting, finish or
// deadline-out in-flight requests, flush final stats to stderr, exit 0.
#include <csignal>
#include <cstdio>
#include <cstring>

#include "api/client.hpp"  // parse_endpoint for --listen
#include "api/serve.hpp"
#include "base/fault.hpp"
#include "base/strings.hpp"

namespace {

using namespace pp;

api::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->begin_drain();
}

int usage(FILE* to) {
  std::fprintf(to,
               "ppd — persistent prediction daemon for the pp platform\n"
               "\n"
               "usage: ppd --socket PATH [--listen HOST:PORT] [flags]\n"
               "\n"
               "flags:\n"
               "  --socket PATH          Unix-domain socket to listen on\n"
               "  --listen HOST:PORT     IPv4 TCP listener (port 0 = kernel-chosen;\n"
               "                         the bound port prints to stderr). The ppd1\n"
               "                         protocol has NO authentication — keep the bind\n"
               "                         on loopback unless the network is trusted\n"
               "                         (docs/ppd.md, Transports)\n"
               "  --workers N            concurrently executing requests   (default 2)\n"
               "  --max-queue N          waiting requests before shedding  (default 8)\n"
               "  --retry-after-ms N     hint sent with overloaded errors  (default 50)\n"
               "  --max-frame-bytes N    request frame ceiling             (default 4194304)\n"
               "  --backlog N            accept backlog                    (default 64)\n"
               "\n"
               "At least one of --socket / --listen is required. Scale, fidelity,\n"
               "caches and budgets come from the environment, exactly like ppctl (see\n"
               "docs/api.md); protocol and lifecycle: docs/ppd.md.\n"
               "Drive it with: ppctl run --connect PATH|HOST:PORT spec.json\n");
  return to == stdout ? 0 : 2;
}

int fail(const std::string& msg) {
  std::fprintf(stderr, "ppd: %s\n", msg.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  api::ServerOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    // Numeric flags parse strictly (parse_i64): "abc", "2k", "1.5", "-3" or
    // anything out of range is a named usage error (exit 2), never a silent
    // default or a wrapped value.
    const auto int_flag = [&](const char* name, std::int64_t lo, std::int64_t hi,
                              std::int64_t& out) -> bool {
      const char* v = value();
      std::int64_t n = 0;
      if (v == nullptr || !parse_i64(v, n) || n < lo || n > hi) {
        std::fprintf(stderr, "ppd: %s needs an integer in [%lld, %lld], got %s\n", name,
                     static_cast<long long>(lo), static_cast<long long>(hi),
                     v == nullptr ? "nothing" : strformat("\"%s\"", v).c_str());
        return false;
      }
      out = n;
      return true;
    };
    std::int64_t n = 0;
    if (a == "--help" || a == "-h") return usage(stdout);
    if (a == "--socket") {
      const char* v = value();
      if (v == nullptr) return fail("--socket needs a path");
      opts.socket_path = v;
    } else if (a == "--listen") {
      const char* v = value();
      if (v == nullptr) return fail("--listen needs HOST:PORT");
      api::Endpoint ep;
      std::string err;
      if (!api::parse_endpoint(v, ep, err, /*allow_ephemeral_port=*/true) || !ep.is_tcp()) {
        return fail(err.empty() ? strformat("--listen needs HOST:PORT, got \"%s\"", v)
                                : "--listen: " + err);
      }
      opts.listen_host = ep.host;
      opts.listen_port = ep.port;
    } else if (a == "--workers") {
      if (!int_flag("--workers", 1, 64, n)) return 2;
      opts.workers = static_cast<int>(n);
    } else if (a == "--max-queue") {
      if (!int_flag("--max-queue", 0, 4096, n)) return 2;
      opts.max_queue = static_cast<int>(n);
    } else if (a == "--retry-after-ms") {
      if (!int_flag("--retry-after-ms", 1, 60000, n)) return 2;
      opts.retry_after_ms = static_cast<int>(n);
    } else if (a == "--max-frame-bytes") {
      if (!int_flag("--max-frame-bytes", 64, 64 << 20, n)) return 2;
      opts.max_frame_bytes = static_cast<std::size_t>(n);
    } else if (a == "--backlog") {
      if (!int_flag("--backlog", 1, 4096, n)) return 2;
      opts.tcp_backlog = static_cast<int>(n);
    } else {
      return fail("unknown flag \"" + a + "\" (see ppd --help)");
    }
  }
  if (opts.socket_path.empty() && opts.listen_port < 0) {
    usage(stderr);
    return fail("at least one of --socket / --listen is required");
  }

  api::Server server(opts);
  std::string err;
  if (!server.listen(&err)) return fail(err);
  g_server = &server;

  // A client vanishing mid-response must surface as a write error on that
  // connection, never kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  if (!opts.socket_path.empty()) {
    std::fprintf(stderr, "[ppd] listening on %s (workers=%d max_queue=%d)\n",
                 opts.socket_path.c_str(), opts.workers, opts.max_queue);
  }
  if (server.tcp_port() >= 0) {
    // Exact bound port (resolves --listen HOST:0) — lifecycle tests and
    // scripts grep this line to learn where to connect.
    std::fprintf(stderr, "[ppd] listening on tcp %s:%d (workers=%d max_queue=%d)\n",
                 opts.listen_host.empty() ? "127.0.0.1" : opts.listen_host.c_str(),
                 server.tcp_port(), opts.workers, opts.max_queue);
  }
  if (FaultInjector::global().enabled()) {
    std::fprintf(stderr, "[ppd] fault injection enabled (PP_FAULTS)\n");
  }
  return server.serve();
}

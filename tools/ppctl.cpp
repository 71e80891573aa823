// ppctl — the command-line front end of the pp::api experiment facade.
//
// Experiments are data: a JSON ExperimentSpec file fully describes machine
// knobs, flows, placement, windows, seeds and what to compute, and ppctl
// executes any such file (or builds one from flags) and prints text, CSV or
// JSON. Specs with an "artifact" field print one of the paper's results
// (Table 1, Figures 2 and 4-10, the NUMA and throttling ablations). See
// docs/api.md for the schema.
//
//   ppctl run <spec.json>...      execute spec files (batched)
//   ppctl sweep  --flows T,..     SYN-sweep each listed flow type
//   ppctl predict --flows T,..    predict per-flow drop in the listed mix
//   ppctl solo   --flows T,..     solo-profile each listed flow type
//   ppctl corun  --flows T,..     run the listed mix and measure drops
//   ppctl show <spec.json>...     parse, validate and reprint canonically
//   ppctl stat --connect EP       print a running ppd daemon's statistics
//
// With --connect EP — a Unix socket path, or HOST:PORT for a daemon's TCP
// listener — run/sweep/predict/solo/corun execute on a running ppd daemon
// (docs/ppd.md) instead of in-process: specs are parsed and validated
// locally exactly as before, sent over the connection, and results
// print byte-identically to a direct run. Transient failures — connection
// refused, dropped mid-request, structured `overloaded` responses — retry
// on a deterministic seeded backoff schedule (--retries/--retry-base-ms/
// --retry-seed); exhaustion exits 4.
//
// Common flags:
//   --scale quick|standard|full    workload scale        (default: REPRO_SCALE)
//   --fidelity exact|sampled|streamed                    (default: SIM_FIDELITY)
//   --threads N                    host worker threads   (default: SWEEP_THREADS)
//   --cache DIR                    read/write result cache (default: PROFILE_CACHE)
//   --cache-ro DIR                 read-only secondary cache (default: PROFILE_CACHE_RO)
//   --seeds N                      averaging seeds per data point
//   --seed N                       base run seed (solo/corun)
//   --mode cache|memctrl|both      sweep contention placement
//   --format text|csv|json         output format (default: text)
//   --strict                       exit 3 if any spec fails (default: exit 1)
//
// Exit codes: 0 = all specs succeeded, 1 = some specs failed (their Results
// carry structured errors; the rest are valid), 2 = usage or parse error,
// 3 = every spec failed (or any failed under --strict), 4 = transport
// failure talking to a ppd daemon (retries exhausted, or protocol error).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "api/session.hpp"
#include "api/spec.hpp"
#include "base/fault.hpp"
#include "base/strings.hpp"

namespace {

using namespace pp;

struct CliOptions {
  api::SessionOptions session = api::SessionOptions::from_env();
  std::string format = "text";  // text | csv | json
  // Spec-field overrides applied to every spec (file-loaded or flag-built).
  std::optional<Scale> scale;
  std::optional<sim::SimFidelity> fidelity;
  std::optional<int> seeds;
  std::optional<std::uint64_t> seed;
  std::optional<core::ContentionMode> mode;
  std::vector<core::FlowSpec> flows;
  bool strict = false;  // any failed spec exits 3 instead of 1
  // Daemon mode (--connect): execute on a running ppd instead of in-process.
  // Either a Unix socket path or an IPv4 "HOST:PORT" TCP endpoint.
  api::Endpoint connect;
  bool connected = false;
  int retries = 5;
  int retry_base_ms = 25;
  std::uint64_t retry_seed = 1;
  double deadline_ms = 0;  // per-request wall-clock deadline (0 = spec budget)
};

int usage(FILE* to) {
  std::fprintf(
      to,
      "ppctl — declarative experiment runner for the pp platform\n"
      "\n"
      "usage:\n"
      "  ppctl run <spec.json>...     execute spec files (see docs/api.md)\n"
      "  ppctl show <spec.json>...    validate and reprint specs canonically\n"
      "  ppctl sweep   --flows T,..   SYN-sweep each listed flow type\n"
      "  ppctl predict --flows T,..   predict per-flow drop in the listed mix\n"
      "  ppctl solo    --flows T,..   solo-profile each listed flow type\n"
      "  ppctl corun   --flows T,..   run the listed mix and measure drops\n"
      "  ppctl stat --connect EP      print a running ppd daemon's statistics\n"
      "\n"
      "flags: --scale S --fidelity F --threads N --cache DIR --cache-ro DIR\n"
      "       --seeds N --seed N --mode cache|memctrl|both --format text|csv|json\n"
      "       --strict\n"
      "daemon flags (docs/ppd.md):\n"
      "       --connect EP     execute on the ppd at EP: a Unix socket path,\n"
      "                        or HOST:PORT for its TCP listener\n"
      "       --deadline-ms N  per-request wall-clock deadline\n"
      "       --retries N --retry-base-ms N --retry-seed N   backoff schedule\n"
      "\n"
      "flow types: IP MON FW RE VPN SYN SYN_MAX\n"
      "\n"
      "exit codes: 0 all specs ok; 1 some failed (errors are structured results);\n"
      "            2 usage/parse error; 3 all failed, or any failed with --strict;\n"
      "            4 daemon transport failure (retries exhausted / protocol error)\n");
  return to == stdout ? 0 : 2;
}

int fail(const std::string& msg) {
  std::fprintf(stderr, "ppctl: %s\n", msg.c_str());
  return 2;
}

[[nodiscard]] bool parse_flow_list(const std::string& arg, std::vector<core::FlowSpec>& out,
                                   std::string& err) {
  for (const std::string& item : split(arg, ',')) {
    const std::string name(trim(item));
    core::FlowType type = core::FlowType::kIp;
    if (!api::flow_type_from_string(name, type)) {
      err = "unknown flow type \"" + name + "\" (expected IP|MON|FW|RE|VPN|SYN|SYN_MAX)";
      return false;
    }
    out.push_back(core::FlowSpec::of(type));
  }
  if (out.empty()) {
    err = "--flows needs at least one flow type";
    return false;
  }
  return true;
}

/// Parse trailing flags; positional arguments (spec files) collect in
/// `positional`. Returns -1 to continue, or an exit code.
int parse_flags(int argc, char** argv, int start, CliOptions& cli,
                std::vector<std::string>& positional) {
  for (int i = start; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) return nullptr;
      (void)flag;
      return argv[++i];
    };
    // Numeric flags parse strictly (parse_i64): "abc", "2k", "1.5", "-3" or
    // anything out of range is a named usage error (exit 2), never a silent
    // default or a wrapped value.
    const auto int_flag = [&](const char* name, std::int64_t lo, std::int64_t hi,
                              std::int64_t& out) -> bool {
      const char* v = value(name);
      std::int64_t n = 0;
      if (v == nullptr || !parse_i64(v, n) || n < lo || n > hi) {
        std::fprintf(stderr, "ppctl: %s needs an integer in [%lld, %lld], got %s\n", name,
                     static_cast<long long>(lo), static_cast<long long>(hi),
                     v == nullptr ? "nothing" : strformat("\"%s\"", v).c_str());
        return false;
      }
      out = n;
      return true;
    };
    std::int64_t n = 0;
    if (a == "--help" || a == "-h") return usage(stdout);
    if (a == "--format") {
      const char* v = value("--format");
      if (v == nullptr) return fail("--format needs a value");
      if (std::strcmp(v, "text") != 0 && std::strcmp(v, "csv") != 0 &&
          std::strcmp(v, "json") != 0) {
        return fail("unknown --format (expected text|csv|json)");
      }
      cli.format = v;
    } else if (a == "--scale") {
      const char* v = value("--scale");
      if (v == nullptr) return fail("--scale needs a value");
      Scale scale = Scale::kStandard;
      if (!api::scale_from_string(v, scale)) {
        return fail("unknown --scale (expected quick|standard|full)");
      }
      cli.scale = scale;
    } else if (a == "--fidelity") {
      const char* v = value("--fidelity");
      if (v == nullptr) return fail("--fidelity needs a value");
      sim::SimFidelity fidelity = sim::SimFidelity::kExact;
      if (!api::fidelity_from_string(v, fidelity)) {
        return fail("unknown --fidelity (expected exact|sampled|streamed)");
      }
      cli.fidelity = fidelity;
    } else if (a == "--threads") {
      if (!int_flag("--threads", 1, 64, n)) return 2;
      cli.session.threads = static_cast<int>(n);
    } else if (a == "--cache") {
      const char* v = value("--cache");
      if (v == nullptr) return fail("--cache needs a directory");
      cli.session.cache_dir = v;
    } else if (a == "--cache-ro") {
      const char* v = value("--cache-ro");
      if (v == nullptr) return fail("--cache-ro needs a directory");
      cli.session.cache_dir_ro = v;
    } else if (a == "--seeds") {
      if (!int_flag("--seeds", 1, 16, n)) return 2;
      cli.seeds = static_cast<int>(n);
    } else if (a == "--seed") {
      if (!int_flag("--seed", 1, std::numeric_limits<std::int64_t>::max(), n)) return 2;
      cli.seed = static_cast<std::uint64_t>(n);
    } else if (a == "--mode") {
      const char* v = value("--mode");
      if (v == nullptr) return fail("--mode needs a value");
      core::ContentionMode mode = core::ContentionMode::kBoth;
      if (!api::mode_from_string(v, mode)) {
        return fail("unknown --mode (expected cache|memctrl|both)");
      }
      cli.mode = mode;
    } else if (a == "--flows") {
      const char* v = value("--flows");
      if (v == nullptr) return fail("--flows needs a comma-separated list");
      std::string err;
      if (!parse_flow_list(v, cli.flows, err)) return fail(err);
    } else if (a == "--strict") {
      cli.strict = true;
    } else if (a == "--connect") {
      const char* v = value("--connect");
      if (v == nullptr) return fail("--connect needs a socket path or HOST:PORT");
      std::string err;
      if (!api::parse_endpoint(v, cli.connect, err)) return fail("--connect: " + err);
      cli.connected = true;
    } else if (a == "--retries") {
      if (!int_flag("--retries", 1, 100, n)) return 2;
      cli.retries = static_cast<int>(n);
    } else if (a == "--retry-base-ms") {
      if (!int_flag("--retry-base-ms", 1, 60000, n)) return 2;
      cli.retry_base_ms = static_cast<int>(n);
    } else if (a == "--retry-seed") {
      if (!int_flag("--retry-seed", 0, std::numeric_limits<std::int64_t>::max(), n)) return 2;
      cli.retry_seed = static_cast<std::uint64_t>(n);
    } else if (a == "--deadline-ms") {
      if (!int_flag("--deadline-ms", 1, api::kMaxDeadlineMs, n)) return 2;
      cli.deadline_ms = static_cast<double>(n);
    } else if (!a.empty() && a[0] == '-') {
      return fail("unknown flag \"" + a + "\" (see ppctl --help)");
    } else {
      positional.push_back(a);
    }
  }
  return -1;
}

/// Apply the CLI's spec-field overrides and re-validate the combined spec
/// (by round-tripping its canonical form through the strict parser), so a
/// flag that contradicts the spec's kind — `--mode` on a corun file,
/// `--seed` on a sweep — is rejected exactly like the same field written in
/// the file, never half-applied.
[[nodiscard]] bool override_spec(const CliOptions& cli, api::ExperimentSpec& spec,
                                 std::string& err) {
  if (cli.scale.has_value()) spec.scale = cli.scale;
  if (cli.fidelity.has_value()) spec.fidelity = cli.fidelity;
  if (cli.seeds.has_value()) spec.seeds = *cli.seeds;
  if (cli.seed.has_value()) spec.seed = *cli.seed;
  if (cli.mode.has_value()) spec.mode = *cli.mode;
  const std::optional<api::ExperimentSpec> checked =
      api::ExperimentSpec::parse(spec.to_json(), &err);
  if (!checked.has_value()) {
    err = "flags conflict with the spec: " + err;
    return false;
  }
  spec = *checked;
  return true;
}

[[nodiscard]] bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

void print_bytes(const std::string& bytes) {
  std::fwrite(bytes.data(), 1, bytes.size(), stdout);
  std::fflush(stdout);
}

[[nodiscard]] api::ClientOptions client_options(const CliOptions& cli) {
  api::ClientOptions copts;
  copts.endpoint = cli.connect;
  copts.retries = cli.retries;
  copts.retry_base_ms = cli.retry_base_ms;
  copts.retry_seed = cli.retry_seed;
  return copts;
}

int transport_failure(const api::Client& client, const Status& st) {
  std::fprintf(stderr, "ppctl: daemon transport failure after %zu attempt(s): %s at %s: %s\n",
               client.slept_ms().size() + 1, to_string(st.kind), st.site.c_str(),
               st.detail.c_str());
  return 4;
}

/// Daemon-mode run_specs: each spec becomes one framed request to the ppd
/// at cli.connect; bodies print verbatim (byte-identical to a direct run)
/// and each response's store delta prints in the familiar stderr format.
int run_specs_connected(const CliOptions& cli, const std::vector<api::ExperimentSpec>& specs) {
  api::Client client(client_options(cli));
  std::size_t failed = 0;
  for (const api::ExperimentSpec& spec : specs) {
    api::Reply reply;
    const Status st = client.run(spec.to_json(), cli.format, cli.deadline_ms, reply);
    if (!st.ok()) return transport_failure(client, st);
    if (reply.error.has_value()) {
      std::fprintf(stderr, "ppctl: daemon refused spec: %s at %s: %s\n",
                   to_string(reply.error->kind), reply.error->site.c_str(),
                   reply.error->detail.c_str());
      ++failed;
      continue;
    }
    print_bytes(reply.body);
    if (reply.failed) ++failed;
    std::fprintf(stderr, "[ppctl] profile store: %s\n", reply.store_line.c_str());
  }
  if (failed == 0) return 0;
  std::fprintf(stderr, "[ppctl] %zu of %zu specs failed\n", failed, specs.size());
  return failed == specs.size() || cli.strict ? 3 : 1;
}

int cmd_stat(const CliOptions& cli) {
  if (!cli.connected) return fail("stat: requires --connect SOCK|HOST:PORT (a running ppd)");
  api::Client client(client_options(cli));
  std::string text;
  const Status st = client.stat(text);
  if (!st.ok()) return transport_failure(client, st);
  std::printf("%s", text.c_str());
  return 0;
}

/// Execute specs in argument order — in-process as one Session batch, or
/// on the ppd at cli.connect — and print each result's bytes.
int run_specs(const CliOptions& cli, const std::vector<api::ExperimentSpec>& specs) {
  for (const api::ExperimentSpec& spec : specs) {
    if (!spec.artifact.empty() && cli.format != "text") {
      std::fprintf(stderr,
                   "ppctl: note: artifact \"%s\" prints its own text; --format does not "
                   "apply\n",
                   spec.artifact.c_str());
    }
  }
  if (cli.connected) return run_specs_connected(cli, specs);

  api::Session session(cli.session);
  const std::vector<api::Result> results = session.run_many(specs);
  std::size_t failed = 0;
  for (const api::Result& r : results) {
    if (!r.ok()) ++failed;
    print_bytes(api::render_result(r, cli.format));
  }
  std::fprintf(stderr, "[ppctl] profile store: %s\n", session.store().stats_line().c_str());
  if (FaultInjector::global().enabled()) {
    std::fprintf(stderr, "[ppctl] faults: %s\n", FaultInjector::global().stats_line().c_str());
  }
  if (failed == 0) return 0;
  std::fprintf(stderr, "[ppctl] %zu of %zu specs failed\n", failed, results.size());
  return failed == results.size() || cli.strict ? 3 : 1;
}

int cmd_run(const CliOptions& cli, const std::vector<std::string>& files) {
  if (files.empty()) return fail("run: no spec files given");
  std::vector<api::ExperimentSpec> specs;
  for (const std::string& path : files) {
    std::string text;
    if (!read_file(path, text)) return fail("cannot read " + path);
    std::string err;
    std::optional<api::ExperimentSpec> spec = api::ExperimentSpec::parse(text, &err);
    if (!spec.has_value()) return fail(path + ": " + err);
    if (!override_spec(cli, *spec, err)) return fail(path + ": " + err);
    specs.push_back(std::move(*spec));
  }
  return run_specs(cli, specs);
}

int cmd_show(const CliOptions& cli, const std::vector<std::string>& files) {
  if (files.empty()) return fail("show: no spec files given");
  for (const std::string& path : files) {
    std::string text;
    if (!read_file(path, text)) return fail("cannot read " + path);
    std::string err;
    std::optional<api::ExperimentSpec> spec = api::ExperimentSpec::parse(text, &err);
    if (!spec.has_value()) return fail(path + ": " + err);
    if (!override_spec(cli, *spec, err)) return fail(path + ": " + err);
    std::printf("%s", spec->to_json().c_str());
  }
  return 0;
}

int cmd_inline(const CliOptions& cli, api::ExperimentKind kind) {
  if (cli.flows.empty()) {
    return fail(std::string(to_string(kind)) + ": requires --flows (e.g. --flows MON,VPN)");
  }
  api::ExperimentSpec spec;
  spec.kind = kind;
  spec.flows = cli.flows;
  std::string err;
  if (!override_spec(cli, spec, err)) return fail(err);
  return run_specs(cli, {spec});
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr);
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") return usage(stdout);

  CliOptions cli;
  std::vector<std::string> positional;
  const int rc = parse_flags(argc, argv, 2, cli, positional);
  if (rc >= 0) return rc;

  if (cmd == "run") return cmd_run(cli, positional);
  if (cmd == "show") return cmd_show(cli, positional);
  if (cmd == "stat") return cmd_stat(cli);
  if (cmd == "sweep") return cmd_inline(cli, api::ExperimentKind::kSweep);
  if (cmd == "predict") return cmd_inline(cli, api::ExperimentKind::kPredict);
  if (cmd == "solo") return cmd_inline(cli, api::ExperimentKind::kSolo);
  if (cmd == "corun") return cmd_inline(cli, api::ExperimentKind::kCorun);
  return fail("unknown command \"" + cmd + "\" (see ppctl --help)");
}

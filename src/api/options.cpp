#include "api/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>

extern char** environ;

namespace pp::api {

namespace {

void warn(const char* fmt, const char* value) {
  std::fprintf(stderr, "pp: warning: ");
  std::fprintf(stderr, fmt, value);  // NOLINT: fmt is a literal with one %s
  std::fprintf(stderr, "\n");
}

/// The complete set of environment variables the platform recognizes. Names
/// under the audited prefixes that are not listed here earn a warning — a
/// typo like SIM_FIDELTY should not silently run the default configuration.
constexpr const char* kKnownVars[] = {
    "REPRO_SCALE",    "SIM_FIDELITY",  "SIM_SAMPLE_PERIOD_MAX",
    "SWEEP_THREADS",  "PROFILE_CACHE", "PROFILE_CACHE_RO",
    "PP_RUN_BUDGET",  "PP_FAULTS",
};

constexpr const char* kAuditedPrefixes[] = {"SIM_", "PP_", "SWEEP_", "REPRO_",
                                            "PROFILE_CACHE"};

void audit_unknown_names() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view entry(*e);
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) continue;
    const std::string_view name = entry.substr(0, eq);
    bool audited = false;
    for (const char* prefix : kAuditedPrefixes) {
      if (name.substr(0, std::strlen(prefix)) == prefix) {
        audited = true;
        break;
      }
    }
    if (!audited) continue;
    bool known = false;
    for (const char* k : kKnownVars) {
      if (name == k) {
        known = true;
        break;
      }
    }
    if (!known) {
      warn("unrecognized environment variable %s (known: REPRO_SCALE, "
           "SIM_FIDELITY, SIM_SAMPLE_PERIOD_MAX, SWEEP_THREADS, "
           "PROFILE_CACHE, PROFILE_CACHE_RO, PP_RUN_BUDGET, PP_FAULTS)",
           std::string(name).c_str());
    }
  }
}

[[nodiscard]] bool parse_u32(const char* s, std::uint32_t& out) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0' || v > 0xffffffffUL) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

SessionOptions parse_env() {
  SessionOptions o;
  audit_unknown_names();

  if (const char* v = std::getenv("REPRO_SCALE"); v != nullptr) {
    if (std::strcmp(v, "quick") == 0) {
      o.scale = Scale::kQuick;
    } else if (std::strcmp(v, "full") == 0) {
      o.scale = Scale::kFull;
    } else if (std::strcmp(v, "standard") != 0) {
      warn("unrecognized REPRO_SCALE=%s (expected quick|standard|full); "
           "running at the standard scale", v);
    }
  }

  if (const char* v = std::getenv("SIM_FIDELITY"); v != nullptr) {
    if (std::strcmp(v, "sampled") == 0) {
      o.fidelity = sim::SimFidelity::kSampled;
    } else if (std::strcmp(v, "streamed") == 0) {
      o.fidelity = sim::SimFidelity::kStreamed;
    } else if (std::strcmp(v, "exact") != 0) {
      warn("unrecognized SIM_FIDELITY=%s (expected exact|sampled|streamed); "
           "running the exact tier", v);
    }
  }

  if (const char* v = std::getenv("SIM_SAMPLE_PERIOD_MAX"); v != nullptr) {
    std::uint32_t parsed = 0;
    if (parse_u32(v, parsed) && parsed >= 2 && parsed <= 64 &&
        (parsed & (parsed - 1)) == 0) {
      o.sample_period_max = parsed;
    } else {
      warn("invalid SIM_SAMPLE_PERIOD_MAX=%s (expected a power of two in "
           "[2, 64]); using the fidelity tier's default ceiling", v);
    }
  }

  if (const char* v = std::getenv("SWEEP_THREADS"); v != nullptr) {
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || n < 1) {
      warn("invalid SWEEP_THREADS=%s (expected an integer >= 1); "
           "running single-threaded", v);
      o.threads = 1;
    } else {
      o.threads = n > 64 ? 64 : static_cast<int>(n);
    }
  } else {
    const unsigned hw = std::thread::hardware_concurrency();
    o.threads = hw == 0 ? 1 : (hw > 8 ? 8 : static_cast<int>(hw));
  }

  if (const char* v = std::getenv("PROFILE_CACHE"); v != nullptr) o.cache_dir = v;
  if (const char* v = std::getenv("PROFILE_CACHE_RO"); v != nullptr) o.cache_dir_ro = v;

  if (const char* v = std::getenv("PP_RUN_BUDGET"); v != nullptr) {
    char* end = nullptr;
    const double ms = std::strtod(v, &end);
    if (end == v || *end != '\0' || !(ms > 0)) {
      warn("invalid PP_RUN_BUDGET=%s (expected simulated milliseconds > 0); "
           "running without a budget", v);
    } else {
      o.run_budget_ms = ms;
    }
  }
  return o;
}

}  // namespace

SessionOptions SessionOptions::from_env() {
  // One snapshot per process: the parse (and its warnings) run exactly once,
  // and every caller sees the same consistent configuration.
  static const SessionOptions snapshot = parse_env();
  return snapshot;
}

std::uint32_t resolve_sample_period_max(sim::SimFidelity fidelity,
                                        std::uint32_t sample_period,
                                        std::optional<std::uint32_t> requested) {
  // The streamed tier is the "speed tier": it defaults to adaptive widening
  // up to period 16 unless the operator pins the ceiling explicitly
  // (fidelity-first: ceiling 32 pushes cache-friendly chains like MON to
  // ~-7% pps, see docs/simulation_modes.md; 16 keeps every realistic chain
  // within ~3%).
  std::uint32_t v = fidelity == sim::SimFidelity::kStreamed ? 16U : sample_period;
  if (requested.has_value() && *requested >= sample_period && *requested <= 64 &&
      (*requested & (*requested - 1)) == 0) {
    v = *requested;
  }
  return v;
}

int default_seeds(Scale s) { return s == Scale::kFull ? 3 : 1; }

}  // namespace pp::api

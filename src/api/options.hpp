// Session configuration — the one place environment variables are parsed.
//
// Every knob the platform used to read from scattered getenv() calls
// (REPRO_SCALE, SIM_FIDELITY, SIM_SAMPLE_PERIOD_MAX, SWEEP_THREADS,
// PROFILE_CACHE, PROFILE_CACHE_RO, PP_RUN_BUDGET) is an explicit field of
// SessionOptions. PP_FAULTS (the fault-injection spec, base/fault.hpp) is
// audited here but parsed by FaultInjector::global(), since base/ cannot
// depend on this layer.
// `SessionOptions::from_env()` performs the single audited parse: values are
// validated, a typo like SIM_FIDELITY=streamd earns a stderr warning instead
// of silently selecting the exact tier, and unrecognized SIM_*/PP_*/SWEEP_*/
// REPRO_* variable names are reported once per process. Each process takes
// this snapshot once, at its top (ppctl, ppd, bench_pipeline, the examples),
// and passes it down: Session -> ViewStack -> the core views. Nothing below
// api/ reads these variables (PP_FAULTS aside, above), so the whole tree
// sees one configuration.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "base/env.hpp"
#include "sim/types.hpp"

namespace pp::api {

struct SessionOptions {
  /// Workload scale (REPRO_SCALE): sizes, default windows, averaging seeds.
  Scale scale = Scale::kStandard;

  /// Simulation fidelity tier (SIM_FIDELITY: exact | sampled | streamed).
  sim::SimFidelity fidelity = sim::SimFidelity::kExact;

  /// Requested adaptive sampling-period ceiling (SIM_SAMPLE_PERIOD_MAX).
  /// Unset = the tier default (the base period; 16 for the streamed tier).
  /// Validated against the machine's base period at resolution time — see
  /// resolve_sample_period_max().
  std::optional<std::uint32_t> sample_period_max;

  /// Host worker threads for parallel experiment execution (SWEEP_THREADS,
  /// clamped to [1, 64]; default = hardware concurrency clamped to [1, 8]).
  int threads = 1;

  /// Read/write profile-cache directory (PROFILE_CACHE; "" = no persistence).
  std::string cache_dir;

  /// Read-only secondary cache directory (PROFILE_CACHE_RO; "" = none).
  /// Consulted after `cache_dir` misses and never written — the first step
  /// toward a store shared across machines.
  std::string cache_dir_ro;

  /// Per-run execution budget in simulated milliseconds (PP_RUN_BUDGET;
  /// 0 = unlimited). A scenario whose windows exceed it refuses to run with
  /// a structured BudgetExceeded error — see Scenario::budget_ms.
  double run_budget_ms = 0;

  /// Wall-clock deadline for every scenario this session starts (the
  /// default-constructed time_point = none; never set from the
  /// environment). The ppd daemon stamps it per request at admission so
  /// queue wait counts against the request's budget; enforced *between*
  /// scenarios — see core::Scenario::deadline.
  std::chrono::steady_clock::time_point wall_deadline{};

  /// The audited environment snapshot (parsed once per process, warnings to
  /// stderr on the first call). Returned by value so callers can override
  /// individual fields without affecting the shared snapshot.
  [[nodiscard]] static SessionOptions from_env();

  /// Fluent field overrides for one-line construction.
  [[nodiscard]] SessionOptions with_scale(Scale s) const {
    SessionOptions o = *this;
    o.scale = s;
    return o;
  }
  [[nodiscard]] SessionOptions with_fidelity(sim::SimFidelity f) const {
    SessionOptions o = *this;
    o.fidelity = f;
    return o;
  }
  [[nodiscard]] SessionOptions with_threads(int t) const {
    SessionOptions o = *this;
    o.threads = t < 1 ? 1 : t;
    return o;
  }

  [[nodiscard]] bool operator==(const SessionOptions&) const = default;
};

/// Effective MachineConfig::sample_period_max for a tier: the tier default
/// (base `sample_period`; 16 for kStreamed) unless `requested` holds a valid
/// override — a power of two in [sample_period, 64]. Invalid requests are
/// ignored (the parse already warned), mirroring the historical env-var
/// semantics bit-for-bit.
[[nodiscard]] std::uint32_t resolve_sample_period_max(sim::SimFidelity fidelity,
                                                      std::uint32_t sample_period,
                                                      std::optional<std::uint32_t> requested);

/// Default averaging seeds per data point at a scale (the bench engine's
/// historical sweep default: 3 at full scale, 1 otherwise — determinism keeps
/// the per-seed variance tiny, as the paper notes for its 5-run averages).
[[nodiscard]] int default_seeds(Scale s);

}  // namespace pp::api

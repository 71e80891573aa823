// The declarative experiment facade: everything the paper's question — "what
// happens when I run *this* mix on *this* machine with *this* placement?" —
// needs, as a versioned, JSON-round-trippable value type.
//
// An ExperimentSpec is data, not code: it serializes to a spec file any tool
// (or remote service) can store and replay, and it lowers to the existing
// core::Scenario value type, so the 128-bit content key — and with it every
// PROFILE_CACHE behavior — is unchanged by construction. `ppctl run spec.json`
// and `api::Session::run` both execute specs; the paper artifacts
// (api/artifacts.hpp) produce the same scenarios through the same views.
// Schema and examples: docs/api.md and examples/specs/.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "api/options.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"

namespace pp::api {

/// What a spec asks the platform to compute.
///   kSolo            — seed-averaged solo profile of each flow (Table 1 rows);
///   kCorun           — run all flows together, report per-flow metrics and
///                      measured drop vs their solo baselines;
///   kSweep           — drop-vs-competing-refs curve per flow (Figures 4/5);
///   kPredict         — offline prediction: each flow's predicted drop when
///                      co-running with the others (Section 4, no mix run);
///   kPlacementSearch — enumerate socket splits of a 12-flow combination and
///                      report the best/worst placements (Figure 10).
enum class ExperimentKind : std::uint8_t {
  kSolo,
  kCorun,
  kSweep,
  kPredict,
  kPlacementSearch,
};

[[nodiscard]] const char* to_string(ExperimentKind k);

/// Version of the spec JSON schema. Bump on any change to field names,
/// semantics, or defaults; parse rejects files with any other version.
inline constexpr int kSpecSchemaVersion = 1;

struct ExperimentSpec {
  ExperimentKind kind = ExperimentKind::kCorun;

  /// Optional label echoed into results ("" = unnamed).
  std::string name;

  /// Paper artifact to render ("table1", "fig2", ... — the table in
  /// api/artifacts.hpp); Session::run returns its text. "" = generic.
  std::string artifact;

  /// Unset fields inherit the session's configuration (ultimately the
  /// audited environment snapshot, SessionOptions::from_env()).
  std::optional<Scale> scale;
  std::optional<sim::SimFidelity> fidelity;
  std::optional<std::uint32_t> sample_period_max;

  /// Averaging seeds per data point (0 = scale default, api::default_seeds).
  int seeds = 0;

  /// Base run seed (0 = the testbed default, 1). Averaging run i uses
  /// base + i so repeated runs are genuinely independent.
  std::uint64_t seed = 0;

  /// Measurement windows (unset = the scale defaults). measure_ms = 0 is a
  /// legal degenerate spec: it reports zero packets and 0-valued ratios.
  std::optional<double> warmup_ms;
  std::optional<double> measure_ms;

  /// Per-run execution budget in simulated ms (unset = the session's
  /// PP_RUN_BUDGET, which defaults to unlimited). A scenario whose windows
  /// exceed it fails with a structured BudgetExceeded error instead of
  /// running — see core::Scenario::budget_ms. Additive: version stays 1.
  std::optional<double> budget_ms;

  /// Contention placement for kSweep (Figure 3's three configurations).
  core::ContentionMode mode = core::ContentionMode::kBoth;

  std::vector<core::FlowSpec> flows;

  /// Explicit per-flow placement for kSolo/kCorun (empty = flow i on core i,
  /// data NUMA-local). Parallel to `flows` when present.
  std::vector<core::FlowPlacement> placement;

  [[nodiscard]] bool operator==(const ExperimentSpec&) const = default;

  /// Canonical JSON (fixed field order, unset fields omitted). Equal specs
  /// emit equal text and vice versa — run_many dedups on this form.
  [[nodiscard]] std::string to_json() const;

  /// Strict parse + validation: unknown fields, a missing/unsupported
  /// "version", malformed values, and kind-inapplicable fields are all
  /// errors (never half-applied). On failure returns nullopt and fills
  /// `error`.
  [[nodiscard]] static std::optional<ExperimentSpec> parse(const std::string& json,
                                                           std::string* error = nullptr);
};

/// Name lookups, one table per enum: each accepts exactly the names its
/// to_string prints ("IP", "quick", "streamed", "cache-only", ...), and
/// mode_from_string also the aliases cache|memctrl|both. Shared by the JSON
/// layer, the ppctl flag parser and the environment parse, so all accept
/// the same set. Each returns false, leaving `out` untouched, on an unknown
/// name.
[[nodiscard]] bool flow_type_from_string(const std::string& s, core::FlowType& out);
[[nodiscard]] bool scale_from_string(const std::string& s, Scale& out);
[[nodiscard]] bool fidelity_from_string(const std::string& s, sim::SimFidelity& out);
[[nodiscard]] bool mode_from_string(const std::string& s, core::ContentionMode& out);

/// Session configuration with this spec's overrides applied.
[[nodiscard]] SessionOptions apply_spec(const ExperimentSpec& spec, SessionOptions base);

/// Lower a generic kSolo/kCorun spec to its scenario plan against `tb`
/// (which must already carry the spec's machine overrides):
///   kSolo  — for each flow, one scenario per averaging seed: exactly the
///            SoloProfiler::plan schedule when `seed` is unset (so specs
///            share the profilers' cached scenarios), base + i otherwise;
///   kCorun — one scenario per averaging seed of the whole mix; seed i runs
///            at base_seed + i with the spec (or scale-default) windows.
/// kSweep/kPredict/kPlacementSearch plan through the profiler views instead
/// (their schedules live there); Session::run wires those up.
[[nodiscard]] std::vector<core::Scenario> lower_spec(const ExperimentSpec& spec,
                                                     const core::Testbed& tb);

}  // namespace pp::api

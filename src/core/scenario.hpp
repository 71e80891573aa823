// The declarative scenario layer: everything that determines one simulated
// experiment — machine description (including fidelity and sampling knobs),
// workload sizes, the flow mix, its placement, the measurement windows and
// the run seed — captured as a plain value type.
//
// Scenarios are the unit of caching and host-parallel execution: two
// scenarios with the same content hash to the same stable key (see
// scenario_key), and running a scenario is a pure function of its fields
// (each run builds a fresh, self-contained, deterministic Machine). The
// ProfileStore builds on both properties; the profiling/prediction stack
// (SoloProfiler, SweepProfiler, ContentionPredictor, PlacementEvaluator)
// is a set of thin views that plan scenarios and aggregate their results.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/testbed.hpp"

namespace pp::core {

/// One fully specified experiment. Value semantics throughout: copying a
/// scenario copies the experiment, and equality of content implies equality
/// of results (and of keys).
struct Scenario {
  sim::MachineConfig machine;
  WorkloadSizes sizes;
  std::vector<FlowSpec> flows;
  std::vector<FlowPlacement> placement;  // parallel to flows
  double warmup_ms = 2.0;
  double measure_ms = 8.0;
  std::uint64_t seed = 1;

  /// Per-run execution budget in simulated milliseconds (0 = unlimited;
  /// PP_RUN_BUDGET / ExperimentSpec::budget_ms upstream). An execution
  /// *guard*, not content: it never changes what a run computes — a scenario
  /// whose windows exceed the budget refuses to run (StatusError with
  /// kBudgetExceeded) instead of wedging a worker — so it is deliberately
  /// NOT part of the content key, and cached results are served regardless
  /// of the caller's budget (a memo hit costs nothing to serve).
  double budget_ms = 0;

  /// Wall-clock deadline (default-constructed = none). Like budget_ms an
  /// execution *guard*, not content: checked when a scenario is about to
  /// run, so a deadlined ppd request fails between scenarios with a
  /// structured kBudgetExceeded instead of hanging its client — and, also
  /// like budget_ms, deliberately NOT part of the content key (memo hits
  /// serve regardless, and a generous deadline is bit-identical to none).
  std::chrono::steady_clock::time_point deadline{};

  /// Capture a Testbed run as a scenario (the testbed contributes machine
  /// config and workload sizes; the RunConfig contributes the rest).
  [[nodiscard]] static Scenario of(const Testbed& tb, const RunConfig& cfg);
};

/// 128-bit content key. Derivation (docs/scenario_engine.md): every scenario
/// field is appended to a canonical little-endian byte stream — doubles by
/// bit pattern, enums by underlying value, vectors length-prefixed — that is
/// folded twice with independently seeded FNV-1a/mix64 passes. The stream
/// starts with kScenarioSchemaVersion, so a schema bump changes every key.
struct ScenarioKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool operator==(const ScenarioKey&) const = default;
  /// 32 lowercase hex digits; used as the on-disk cache filename.
  [[nodiscard]] std::string hex() const;
};

/// Version of the scenario-key schema AND the persisted result format. Bump
/// whenever the simulator's observable behavior, the key derivation, or the
/// JSON layout changes; stale cache files are then ignored and rewritten.
/// v2: SimFidelity::kStreamed + adaptive sampling period
/// (MachineConfig::sample_period_max) + FlowSpec::batch entered the key.
/// v3: a payload checksum entered the persisted JSON envelope (required on
/// load; mismatches quarantine the file — see docs/robustness.md). The key
/// derivation itself is unchanged, but keys embed the version, so the bump
/// invalidates all v2 cache files.
inline constexpr int kScenarioSchemaVersion = 3;

[[nodiscard]] ScenarioKey scenario_key(const Scenario& s);

/// The scenario_key derivation minus the run-only fields: the measurement
/// windows and every flow's SYN reads/instr. Scenarios with equal setup keys
/// build identical machines and reach the same warm state at the start of
/// warmup, because no element's initialize or prewarm reads a run-only field
/// (docs/scenario_engine.md, "Setup groups"). Never persisted.
[[nodiscard]] ScenarioKey setup_key(const Scenario& s);

/// Per-flow metrics in flow order — exactly what Testbed::run returns.
using ScenarioResult = std::vector<FlowMetrics>;

/// Run a scenario on a fresh machine. Pure: no global state is read or
/// written, so concurrent calls from host threads are safe and results are
/// bit-identical for equal scenarios. A run that mutates its machine
/// mid-run (the Section 4 governor loop in api/artifacts.cpp), or spans one
/// router over several cores (the Section 2.2 pipelining runs there), is
/// not a Scenario: it drives its own Machine, uncached, after
/// check_run_guards.
[[nodiscard]] ScenarioResult run_scenario(const Scenario& s);

/// The execution guards run_scenario applies before any work, for a run of
/// `run_ms` simulated ms: StatusError(kBudgetExceeded) at "scenario.run"
/// when a positive `budget_ms` is below `run_ms`, and at "scenario.deadline"
/// when `deadline` is set and has passed.
void check_run_guards(double run_ms, double budget_ms,
                      std::chrono::steady_clock::time_point deadline);

/// Warm machine states shared by the members of one fan-out
/// (ProfileStore::get_or_run_many). Members with equal setup_key form a
/// setup group. The first member of a group to reach the prewarm point
/// prewarms and publishes a snapshot of its machine at the start of warmup;
/// later members restore it instead of prewarming, waiting if it is still
/// being made. A producer never waits and always publishes (no snapshot when
/// its prewarm throws, and its followers then prewarm themselves), so a wait
/// cannot deadlock. A snapshot is freed once every member of its group has
/// restored it or left, and none outlives the share.
class SetupShare {
 public:
  /// `members[i]` null = slot i takes no part (a memory hit, a repeat).
  explicit SetupShare(const std::vector<const Scenario*>& members);

  SetupShare(const SetupShare&) = delete;
  SetupShare& operator=(const SetupShare&) = delete;

  /// True when slot `i` is the first member of a group of two or more; the
  /// fan-out dispatches these before every other job.
  [[nodiscard]] bool leads(std::size_t i) const;

  /// Bring `machine` (routers built and initialised) to slot `member`'s
  /// warm state: run `prewarm` — which must end at the start of warmup — or
  /// restore a group sibling's snapshot of it.
  void warm(std::size_t member, sim::Machine& machine, const std::function<void()>& prewarm);

  /// Slot `i` is done with the share (a no-op once it has called warm): a
  /// store hit or a failure before the prewarm point leaves its group.
  void leave(std::size_t i);

  /// Snapshots restored so far.
  [[nodiscard]] std::uint64_t restores() const;

  /// Snapshots alive in this process (tests check none outlive a fan-out).
  [[nodiscard]] static int live_snapshots();

 private:
  enum class Phase : std::uint8_t { kOpen, kProducing, kDone };
  struct Group {
    std::size_t remaining = 0;  // members yet to take the state, start producing or leave
    Phase phase = Phase::kOpen;
    std::shared_ptr<const sim::MachineState> state;  // set while kDone and wanted
  };
  static constexpr std::size_t kNone = ~std::size_t{0};

  /// Mark member `i` as having arrived or left (under mu_): its group, or
  /// kNone when it is ungrouped or already settled.
  std::size_t settle(std::size_t i);
  void publish(std::size_t g, std::shared_ptr<const sim::MachineState> state);

  std::vector<std::size_t> group_of_;  // per slot; kNone = ungrouped
  std::vector<bool> leads_;
  std::vector<bool> settled_;
  std::vector<Group> groups_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t restores_ = 0;
};

/// run_scenario as slot `member` of a fan-out sharing `share`: bit-identical
/// to run_scenario(s), with the prewarm possibly replaced by a restore.
[[nodiscard]] ScenarioResult run_scenario(const Scenario& s, SetupShare& share,
                                          std::size_t member);

/// One-line human summary ("2xMON+1xSYN seed=7 exact"), embedded in cache
/// files so they are greppable.
[[nodiscard]] std::string describe(const Scenario& s);

}  // namespace pp::core

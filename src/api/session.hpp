// The public facade: one entry point for executing declarative experiments.
//
// A Session bundles the scenario-engine stack — the content-addressed
// ProfileStore plus the stateless profiler/predictor/placement views — behind
// explicit SessionOptions instead of scattered getenv() calls, and executes
// ExperimentSpecs into structured, serializable Results:
//
//   api::Session session;                                  // env-configured
//   auto spec = api::ExperimentSpec::parse(file_text, &err);
//   api::Result r = session.run(*spec);
//   std::puts(r.to_json().c_str());
//
// run_many() fans independent specs over the host thread pool with
// canonical-form dedup on top of the store's scenario-level single-flight,
// so a batch of overlapping requests simulates each distinct machine state
// exactly once. Results are bit-identical at any thread count (every
// scenario run is a pure function; aggregation is in plan order).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "base/status.hpp"
#include "core/placement.hpp"
#include "core/predictor.hpp"
#include "core/profile_store.hpp"
#include "core/profiler.hpp"
#include "core/sweep.hpp"

namespace pp::api {

/// Per-flow slice of a Result.
struct FlowReport {
  core::FlowSpec spec;        // the flow as requested
  core::FlowMetrics metrics;  // solo/predict: seed-merged solo run; corun: in-mix
  double solo_pps = 0;        // solo baseline throughput (pps)
  double drop_pct = 0;        // corun: measured drop; predict: predicted drop
};

/// Structured failure: what failed (taxonomy kind, base/status.hpp), where
/// (the fault/validation site), and a human detail line.
struct Error {
  StatusKind kind = StatusKind::kInternal;
  std::string site;
  std::string detail;

  /// One-line JSON object: {"kind": "...", "site": "...", "detail": "..."}.
  [[nodiscard]] std::string to_json() const;
};

/// Structured answer to one spec. Which sections are filled depends on the
/// kind: flows for solo/corun/predict, sweeps for sweep, study for
/// placement_search, artifact_text for an artifact spec. A failed spec
/// carries `error` and empty sections — never a half-filled result, never an
/// abort. Serializes to JSON/text/CSV (schema: docs/api.md; failure
/// semantics: docs/robustness.md); render_result picks the format.
struct Result {
  ExperimentKind kind = ExperimentKind::kCorun;
  std::string name;
  Scale scale = Scale::kStandard;
  sim::SimFidelity fidelity = sim::SimFidelity::kExact;
  int seeds = 1;

  std::vector<FlowReport> flows;
  std::vector<core::SweepResult> sweeps;
  std::optional<core::PlacementStudy> study;

  /// An artifact spec's rendered text (api/artifacts.hpp); "" otherwise.
  std::string artifact_text;

  std::optional<Error> error;
  [[nodiscard]] bool ok() const { return !error.has_value(); }

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] std::string to_csv() const;
};

/// The bytes `ppctl run` prints and ppd replies with for one Result, in
/// `format` ("text", "csv" or "json"; text gets a trailing newline). A
/// successful artifact's text is returned verbatim whatever the format.
[[nodiscard]] std::string render_result(const Result& r, const std::string& format);

/// The stateless view stack over one store, configured from explicit options
/// (Session builds one per spec — construction is cheap; all measurement
/// state lives in the store).
struct ViewStack {
  core::Testbed tb;
  core::SoloProfiler solo;
  core::SweepProfiler sweep;
  core::ContentionPredictor predictor;
  core::PlacementEvaluator placement;

  /// `seeds` = averaging seeds per data point (0 = default_seeds(scale)).
  ViewStack(const SessionOptions& opts, int seeds, core::ProfileStore& store);

  ViewStack(const ViewStack&) = delete;
  ViewStack& operator=(const ViewStack&) = delete;
};

class Session {
 public:
  struct Stats {
    std::uint64_t specs_run = 0;     // specs actually executed
    std::uint64_t specs_deduped = 0; // batch entries served by an identical spec
    std::uint64_t specs_failed = 0;  // executed specs that returned an Error
  };

  /// `store` (tests mostly) overrides the store choice; otherwise the
  /// session uses the process-global store when `opts` names the same cache
  /// directories as the environment (so benches/examples keep sharing one
  /// memo table per process) and a private store for custom directories.
  explicit Session(SessionOptions opts = SessionOptions::from_env(),
                   core::ProfileStore* store = nullptr);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Execute one spec, generic or artifact. Safe to call concurrently;
  /// every scenario is simulated at most once per store.
  /// Never throws and never aborts on a bad spec or a failed run: failures
  /// come back as Result::error with empty data sections.
  [[nodiscard]] Result run(const ExperimentSpec& spec);

  /// Execute a batch: identical specs (by canonical JSON) run once, distinct
  /// specs fan out over options().threads host threads. Results are in input
  /// order and bit-identical to running the batch serially. Failures are
  /// isolated per spec: one poisoned spec yields one Result::error while
  /// every other spec's result is unaffected (bit-identical to running the
  /// good specs alone).
  [[nodiscard]] std::vector<Result> run_many(const std::vector<ExperimentSpec>& specs);

  [[nodiscard]] core::ProfileStore& store() const { return *store_; }
  [[nodiscard]] const SessionOptions& options() const { return opts_; }
  [[nodiscard]] Stats stats() const;

 private:
  SessionOptions opts_;
  std::unique_ptr<core::ProfileStore> owned_store_;
  core::ProfileStore* store_;
  std::atomic<std::uint64_t> specs_run_{0};
  std::atomic<std::uint64_t> specs_deduped_{0};
  std::atomic<std::uint64_t> specs_failed_{0};
};

}  // namespace pp::api

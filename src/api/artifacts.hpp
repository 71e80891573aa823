// The paper's artifacts — Table 1, Figures 2 and 4-10, and the Section 2.2
// NUMA and pipelining and Section 4 throttling ablations — as data: one
// table of named renderers that Session::run executes like any other spec
// kind.
//
// A spec with "artifact": "<name>" selects an entry here. The renderer
// drives the scenario-engine views over the caller's store (the pipeline
// and throttle ablations drive their own uncached machines) and appends the
// artifact's text (aligned tables plus CSV blocks) to a string, so the same
// bytes reach `ppctl run` and a ppd reply without touching process stdout.
// tests/golden/artifacts/<name>.quick.txt locks every artifact's bytes at
// quick scale.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/env.hpp"

namespace pp::core {
class Testbed;
}  // namespace pp::core

namespace pp::api {

struct ViewStack;

struct Artifact {
  const char* name;

  /// Averaging seeds per data point when the spec leaves `seeds` unset:
  /// seeds_for (Table 1, Figure 6) or the sweep default, default_seeds.
  /// numa, pipeline and throttle run one seed whatever `seeds` says.
  int (*default_seeds)(Scale);

  /// Append the artifact's text to `out`. Store failures propagate as
  /// exceptions (Session::run turns them into a structured error).
  void (*render)(ViewStack& views, std::string& out);
};

/// Every artifact: table1, fig2, fig4 ... fig10 in paper order, then numa,
/// pipeline and throttle.
[[nodiscard]] std::span<const Artifact> artifacts();

/// The entry named `name`, or nullptr.
[[nodiscard]] const Artifact* find_artifact(std::string_view name);

/// "table1, fig2, ..., fig10, numa, pipeline, throttle" — for error messages.
[[nodiscard]] std::string artifact_names();

/// One measured configuration of the Section 2.2 pipelining ablation.
struct PipelineRun {
  const char* name = "";
  double pps = 0;
  double l3_refs_per_packet = 0;  // private-cache misses per packet, all cores
  double xcore_per_packet = 0;    // cross-core transfers per packet
  double host_seconds = 0;        // host wall-clock of the measured window
};

/// The four Section 2.2 configurations — parallel_ip, pipelined_ip,
/// mono_syn, split_syn, in that order — on `tb`'s machine config, with
/// FromDevice and Unqueue moving bursts of `batch` packets. Each run is one router spanning the bound
/// cores: prewarm through core 0, then a 2 ms warm and a 6 ms measured
/// window, after `tb`'s run guards (core::check_run_guards). Uncached.
/// The `pipeline` artifact renders BATCH 1; tests/api/pipeline_drift_test.cpp
/// gates the statistical tiers against exact at BATCH 32.
[[nodiscard]] std::vector<PipelineRun> run_pipeline_configs(const core::Testbed& tb, int batch);

}  // namespace pp::api

// The paper's artifacts — Table 1, Figures 2 and 4-10, and the Section 2.2
// NUMA and Section 4 throttling ablations — as data: one table of named
// renderers that Session::run executes like any other spec kind.
//
// A spec with "artifact": "<name>" selects an entry here. The renderer
// drives the scenario-engine views over the caller's store (the throttle
// ablation alone drives its own uncached machine) and appends the
// artifact's text (aligned tables plus CSV blocks) to a string, so the same
// bytes reach `ppctl run` and a ppd reply without touching process stdout.
// tests/golden/artifacts/<name>.quick.txt locks every artifact's bytes at
// quick scale.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "base/env.hpp"

namespace pp::api {

struct ViewStack;

struct Artifact {
  const char* name;

  /// Averaging seeds per data point when the spec leaves `seeds` unset:
  /// seeds_for (Table 1, Figure 6) or the sweep default, default_seeds.
  /// numa and throttle run one seed whatever `seeds` says.
  int (*default_seeds)(Scale);

  /// Append the artifact's text to `out`. Store failures propagate as
  /// exceptions (Session::run turns them into a structured error).
  void (*render)(ViewStack& views, std::string& out);
};

/// Every artifact: table1, fig2, fig4 ... fig10 in paper order, then numa
/// and throttle.
[[nodiscard]] std::span<const Artifact> artifacts();

/// The entry named `name`, or nullptr.
[[nodiscard]] const Artifact* find_artifact(std::string_view name);

/// "table1, fig2, ..., fig10, numa, throttle" — for error messages.
[[nodiscard]] std::string artifact_names();

}  // namespace pp::api

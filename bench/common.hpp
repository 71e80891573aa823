// Shared scaffolding for the ablation and load benchmark binaries.
//
// Every bench prints what it measures, runs at the scale selected by
// REPRO_SCALE (quick | standard | full), and emits both an aligned text table
// and a CSV block for plotting. The paper's own tables and figures are not
// benches: they are spec data rendered by api/artifacts.hpp
// (`ppctl run examples/specs/<name>.json`).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "base/env.hpp"
#include "base/fault.hpp"
#include "base/table.hpp"
#include "core/profile_store.hpp"
#include "core/profiler.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "core/testbed.hpp"

namespace pp::bench {

inline void header(const char* artifact, const char* description, Scale scale) {
  std::printf("%s", banner(std::string(artifact) + " — " + description).c_str());
  std::printf("scale=%s (set REPRO_SCALE=quick|standard|full)\n\n", to_string(scale));
  std::fflush(stdout);
}

inline void print_table(const char* title, const TextTable& table) {
  std::printf("%s\n%s\nCSV:\n%s\n", title, table.to_text().c_str(), table.to_csv().c_str());
  std::fflush(stdout);
}

}  // namespace pp::bench

// Containing hidden aggressiveness (Section 4): monitor each flow's L3
// refs/sec with the (simulated) hardware counters; when a flow exceeds the
// envelope recorded during its offline profiling, drive its ControlShim —
// the paper's per-flow "control element" of plain CPU work — until the
// flow's memory-access rate returns under its profiled budget.
#pragma once

#include <vector>

#include "click/elements_basic.hpp"
#include "core/testbed.hpp"

namespace pp::core {

class AggressivenessGovernor {
 public:
  struct Limit {
    int flow_index = 0;
    double refs_per_sec_cap = 0;  // profiled envelope
  };

  /// `slack`: tolerated overshoot fraction before throttling kicks in.
  explicit AggressivenessGovernor(std::vector<Limit> limits, double slack = 0.05);

  /// Call once per monitoring window from the loop that advances the
  /// machine; `flows` indexes the limits' flow_index.
  void operator()(sim::Machine& machine, const std::vector<FlowHandle>& flows);

  [[nodiscard]] std::uint64_t interventions() const { return interventions_; }

  /// Locate the ControlShim in a flow's chain (nullptr if absent).
  [[nodiscard]] static click::ControlShim* find_shim(click::Router& router);

 private:
  struct State {
    std::uint64_t last_refs = 0;
    sim::Cycles last_now = 0;
    bool primed = false;
  };

  std::vector<Limit> limits_;
  double slack_;
  std::vector<State> states_;
  std::uint64_t interventions_ = 0;
};

}  // namespace pp::core

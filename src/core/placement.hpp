// Contention-aware scheduling evaluation (Section 5, Figure 10): for a
// 12-flow combination, enumerate the distinct ways of splitting the flows
// across the two sockets, measure the average contention-induced drop under
// each, and report the best and worst placements. The gap between them is
// the maximum benefit contention-aware scheduling could deliver.
//
// Stateless view over the ProfileStore: the whole placement enumeration —
// every (placement, seed) run plus one solo plan per flow, whose repeated
// keys the store collapses — fans out over the host thread pool in one
// store request; aggregation walks fixed slots in enumeration order, so the
// study is bit-identical at any thread count.
#pragma once

#include <vector>

#include "core/profiler.hpp"

namespace pp::core {

struct PlacementOutcome {
  std::vector<int> socket_of_flow;    // 0 or 1 per flow
  double avg_drop_pct = 0;            // mean per-flow drop vs solo
  std::vector<double> per_flow_drop;  // parallel to flows
};

struct PlacementStudy {
  PlacementOutcome best;
  PlacementOutcome worst;
  int placements_evaluated = 0;
};

class PlacementEvaluator {
 public:
  /// Fans every study out over up to `solo.threads()` host threads.
  explicit PlacementEvaluator(SoloProfiler& solo);

  /// `flows` must have exactly cores-many entries (12). Placements that are
  /// equivalent up to permuting flows of the same type within a socket (and
  /// swapping the sockets) are evaluated once.
  [[nodiscard]] PlacementStudy evaluate(const std::vector<FlowSpec>& flows) const;

  [[nodiscard]] SoloProfiler& solo() const { return solo_; }

 private:
  [[nodiscard]] Scenario placement_scenario(const std::vector<FlowSpec>& flows,
                                            const std::vector<int>& socket_of_flow,
                                            int seed_index) const;

  SoloProfiler& solo_;
};

}  // namespace pp::core

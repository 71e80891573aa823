#include "core/placement.hpp"

#include <algorithm>
#include <set>

#include "base/check.hpp"

namespace pp::core {

PlacementEvaluator::PlacementEvaluator(SoloProfiler& solo) : solo_(solo) {}

Scenario PlacementEvaluator::placement_scenario(const std::vector<FlowSpec>& flows,
                                                const std::vector<int>& socket_of_flow,
                                                int seed_index) const {
  Testbed& tb = solo_.testbed();
  const int per_socket = tb.machine_config().cores_per_socket;
  RunConfig cfg = tb.configure(flows, static_cast<std::uint64_t>(seed_index + 1) * 15485863);
  int next_core[2] = {0, per_socket};
  for (std::size_t i = 0; i < flows.size(); ++i) {
    cfg.placement[i].core = next_core[socket_of_flow[i]]++;
  }
  return Scenario::of(tb, cfg);
}

PlacementStudy PlacementEvaluator::evaluate(const std::vector<FlowSpec>& flows) const {
  Testbed& tb = solo_.testbed();
  const int cores = tb.machine_config().num_cores();
  const int per_socket = tb.machine_config().cores_per_socket;
  PP_CHECK(static_cast<int>(flows.size()) == cores);
  const int seeds = solo_.seeds();

  // Enumerate subsets of size per_socket for socket 0; canonicalize by the
  // (sorted) type multiset pair so symmetric placements run once.
  std::set<std::vector<int>> seen;
  std::vector<std::vector<int>> placements;
  std::vector<int> pick(flows.size(), 0);
  std::fill(pick.begin(), pick.begin() + per_socket, 1);
  std::sort(pick.begin(), pick.end());

  do {
    std::vector<int> key0;
    std::vector<int> key1;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      (pick[i] != 0 ? key0 : key1).push_back(static_cast<int>(flows[i].type));
    }
    std::sort(key0.begin(), key0.end());
    std::sort(key1.begin(), key1.end());
    std::vector<int> key = std::min(key0, key1);
    key.insert(key.end(), std::max(key0, key1).begin(), std::max(key0, key1).end());
    if (!seen.insert(key).second) continue;

    std::vector<int> socket_of_flow(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) socket_of_flow[i] = pick[i] != 0 ? 0 : 1;
    placements.push_back(std::move(socket_of_flow));
  } while (std::next_permutation(pick.begin(), pick.end()));

  // One flat job list: each flow's solo plan first (a repeated flow type's
  // keys collapse in the store fan-out), then every (placement, seed) run.
  // Aggregation below reads fixed slots in enumeration order.
  const auto n = static_cast<std::size_t>(seeds);
  std::vector<Scenario> jobs;
  jobs.reserve((flows.size() + placements.size()) * n);
  for (const FlowSpec& f : flows) {
    for (Scenario& s : solo_.plan(FlowSpec::of(f.type))) jobs.push_back(std::move(s));
  }
  const std::size_t grid_base = jobs.size();
  for (const std::vector<int>& p : placements) {
    for (int s = 0; s < seeds; ++s) jobs.push_back(placement_scenario(flows, p, s));
  }

  const ScenarioRuns runs = solo_.store().get_or_run_many(jobs, solo_.threads());

  std::vector<FlowMetrics> solo;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    solo.push_back(SoloProfiler::merge_plan(slice(runs, i * n, n)));
  }

  PlacementStudy study;
  for (std::size_t p = 0; p < placements.size(); ++p) {
    PlacementOutcome outcome;
    outcome.socket_of_flow = placements[p];
    double sum = 0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      std::vector<FlowMetrics> per_seed;
      for (std::size_t s = 0; s < n; ++s) per_seed.push_back((*runs[grid_base + p * n + s])[i]);
      const double d = drop_pct(solo[i], merge_metrics(per_seed));
      outcome.per_flow_drop.push_back(d);
      sum += d;
    }
    outcome.avg_drop_pct = sum / static_cast<double>(flows.size());

    ++study.placements_evaluated;
    if (study.placements_evaluated == 1 || outcome.avg_drop_pct < study.best.avg_drop_pct) {
      study.best = outcome;
    }
    if (study.placements_evaluated == 1 || outcome.avg_drop_pct > study.worst.avg_drop_pct) {
      study.worst = outcome;
    }
  }
  return study;
}

}  // namespace pp::core

#include "core/profiler.hpp"

#include "base/check.hpp"

namespace pp::core {

FlowMetrics merge_metrics(const std::vector<FlowMetrics>& runs) {
  PP_CHECK(!runs.empty());
  FlowMetrics out = runs[0];
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const FlowMetrics& r = runs[i];
    out.seconds += r.seconds;
    out.delta += r.delta;
    PP_CHECK(r.elements.size() == out.elements.size());
    for (std::size_t e = 0; e < out.elements.size(); ++e) {
      out.elements[e].delta += r.elements[e].delta;
    }
  }
  return out;
}

double drop_pct(const FlowMetrics& solo, const FlowMetrics& measured) {
  const double s = solo.pps();
  const double c = measured.pps();
  return s <= 0 ? 0.0 : (s - c) / s * 100.0;
}

double competing_refs_per_sec(const ScenarioResult& run) {
  double refs = 0;
  for (std::size_t i = 1; i < run.size(); ++i) refs += run[i].refs_per_sec();
  return refs;
}

SoloProfiler::SoloProfiler(Testbed& tb, int seeds, ProfileStore& store, int threads)
    : tb_(tb), seeds_(seeds), store_(store), threads_(threads < 1 ? 1 : threads) {
  PP_CHECK(seeds >= 1);
}

std::vector<Scenario> SoloProfiler::plan(const FlowSpec& spec) const {
  std::vector<Scenario> out;
  out.reserve(static_cast<std::size_t>(seeds_));
  for (int s = 0; s < seeds_; ++s) {
    const RunConfig cfg = tb_.configure({spec}, static_cast<std::uint64_t>(s + 1) * 7919);
    out.push_back(Scenario::of(tb_, cfg));
  }
  return out;
}

FlowMetrics SoloProfiler::merge_plan(const ScenarioRuns& results) {
  std::vector<FlowMetrics> runs;
  runs.reserve(results.size());
  for (const auto& r : results) runs.push_back((*r)[0]);
  return merge_metrics(runs);
}

FlowMetrics SoloProfiler::profile_spec(const FlowSpec& spec) const {
  return merge_plan(store_.get_or_run_many(plan(spec), threads_));
}

FlowMetrics SoloProfiler::profile(FlowType t) const { return profile_spec(FlowSpec::of(t)); }

TextTable SoloProfiler::table1() const {
  TextTable t({"Flow", "cycles per instruction", "L3 refs/sec (M)", "L3 hits/sec (M)",
               "cycles per packet", "L3 refs per packet", "L3 misses per packet",
               "L2 hits per packet"});
  for (const FlowType ft : kRealisticTypes) {
    const FlowMetrics m = profile(ft);
    t.add_numeric_row(to_string(ft),
                      {m.cpi(), m.refs_per_sec() / 1e6, m.hits_per_sec() / 1e6,
                       m.cycles_per_packet(), m.refs_per_packet(), m.misses_per_packet(),
                       m.l2_hits_per_packet()});
  }
  return t;
}

}  // namespace pp::core

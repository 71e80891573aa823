#include "core/sweep.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace pp::core {

const char* to_string(ContentionMode m) {
  switch (m) {
    case ContentionMode::kCacheOnly:
      return "cache-only";
    case ContentionMode::kMemCtrlOnly:
      return "memctrl-only";
    case ContentionMode::kBoth:
      return "cache+memctrl";
  }
  return "?";
}

void SweepCurve::add(double refs, double drop) {
  pts_.push_back(Point{refs, drop});
  finalized_ = false;
}

void SweepCurve::finalize() {
  std::sort(pts_.begin(), pts_.end(), [](const Point& a, const Point& b) {
    return a.competing_refs_per_sec < b.competing_refs_per_sec;
  });
  finalized_ = true;
}

double SweepCurve::drop_at(double refs) const {
  PP_CHECK(finalized_ && !pts_.empty());
  if (refs <= pts_.front().competing_refs_per_sec) {
    // Interpolate toward (0, 0): zero competition means zero drop.
    const Point& p = pts_.front();
    if (p.competing_refs_per_sec <= 0) return p.drop_pct;
    return p.drop_pct * refs / p.competing_refs_per_sec;
  }
  if (refs >= pts_.back().competing_refs_per_sec) return pts_.back().drop_pct;
  for (std::size_t i = 1; i < pts_.size(); ++i) {
    if (refs <= pts_[i].competing_refs_per_sec) {
      const Point& a = pts_[i - 1];
      const Point& b = pts_[i];
      const double span = b.competing_refs_per_sec - a.competing_refs_per_sec;
      if (span <= 0) return b.drop_pct;
      const double f = (refs - a.competing_refs_per_sec) / span;
      return a.drop_pct + f * (b.drop_pct - a.drop_pct);
    }
  }
  return pts_.back().drop_pct;
}

double predict_drop(const SweepResult& target, const std::vector<FlowMetrics>& competitor_solos) {
  double refs = 0;
  for (const FlowMetrics& c : competitor_solos) refs += c.refs_per_sec();
  return target.curve.drop_at(refs);
}

SweepProfiler::SweepProfiler(SoloProfiler& solo, int competitors)
    : solo_(solo), competitors_(competitors) {
  PP_CHECK(competitors >= 1 && competitors <= 5);
}

std::vector<SynParams> SweepProfiler::default_levels(Scale s) {
  // (reads, instr) per batch; aggressiveness rises down the list. SYN_MAX
  // (32 reads, no compute) closes every schedule.
  switch (s) {
    case Scale::kQuick:
      return {{1, 3000, 12}, {1, 600, 12}, {2, 300, 12}, {8, 100, 12}, {32, 0, 12}};
    case Scale::kStandard:
      return {{1, 6000, 12}, {1, 2000, 12}, {1, 800, 12},  {2, 400, 12},
              {4, 200, 12},  {8, 100, 12},  {32, 0, 12}};
    case Scale::kFull:
      return {{1, 12000, 12}, {1, 4000, 12}, {1, 1500, 12}, {1, 700, 12}, {2, 350, 12},
              {4, 200, 12},   {8, 100, 12},  {16, 50, 12},  {32, 0, 12}};
  }
  return {{1, 3000, 12}, {1, 600, 12}, {32, 0, 12}};
}

Scenario SweepProfiler::level_scenario(const FlowSpec& target, ContentionMode mode,
                                       const SynParams& level, int seed_index) const {
  Testbed& tb = solo_.testbed();
  RunConfig cfg = tb.configure({target}, static_cast<std::uint64_t>(seed_index + 1) * 104729);
  cfg.placement[0].data_domain = 0;
  for (int c = 0; c < competitors_; ++c) {
    cfg.flows.push_back(FlowSpec::syn_flow(level, static_cast<std::uint64_t>(c + 2)));
    FlowPlacement pl;
    switch (mode) {
      case ContentionMode::kBoth:
        pl.core = 1 + c;       // target's socket
        pl.data_domain = -1;   // local (socket 0)
        break;
      case ContentionMode::kCacheOnly:
        pl.core = 1 + c;       // target's socket -> shares L3
        pl.data_domain = 1;    // data remote -> other memory controller
        break;
      case ContentionMode::kMemCtrlOnly:
        pl.core = 6 + c;       // other socket -> different L3
        pl.data_domain = 0;    // data in target's domain -> same controller
        break;
    }
    cfg.placement.push_back(pl);
  }
  return Scenario::of(tb, cfg);
}

SweepResult SweepProfiler::sweep(const FlowSpec& target, ContentionMode mode,
                                 const std::vector<SynParams>& levels) const {
  return sweep_many({target}, mode, levels)[0];
}

std::vector<SweepResult> SweepProfiler::sweep_many(const std::vector<FlowSpec>& targets,
                                                   ContentionMode mode,
                                                   const std::vector<SynParams>& levels) const {
  // Lay every scenario of every target — solo baselines first, then the
  // (level, seed) grid — into one flat job list. Each job writes its own
  // pre-assigned slot in the store fan-out, and aggregation below walks the
  // slots in serial order, so the result is bit-identical whatever the
  // thread count is and however many sweeps share the store concurrently.
  const int seeds = solo_.seeds();
  const std::size_t per_target =
      static_cast<std::size_t>(seeds) * (1 + levels.size());  // solo + grid
  std::vector<Scenario> jobs;
  jobs.reserve(per_target * targets.size());
  for (const FlowSpec& target : targets) {
    for (const Scenario& s : solo_.plan(target)) jobs.push_back(s);
    for (const SynParams& level : levels) {
      for (int s = 0; s < seeds; ++s) {
        jobs.push_back(level_scenario(target, mode, level, s));
      }
    }
  }

  const ScenarioRuns runs = solo_.store().get_or_run_many(jobs, solo_.threads());

  std::vector<SweepResult> out;
  out.reserve(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::size_t base = t * per_target;
    SweepResult result;
    result.target = targets[t].type;
    result.mode = mode;
    result.solo = SoloProfiler::merge_plan(slice(runs, base, static_cast<std::size_t>(seeds)));
    for (std::size_t l = 0; l < levels.size(); ++l) {
      std::vector<FlowMetrics> target_runs;
      double comp_refs_sum = 0;
      for (int s = 0; s < seeds; ++s) {
        const ScenarioResult& run =
            *runs[base + static_cast<std::size_t>(seeds) * (1 + l) + static_cast<std::size_t>(s)];
        target_runs.push_back(run[0]);
        comp_refs_sum += competing_refs_per_sec(run);
      }
      SweepLevel lvl;
      lvl.syn = levels[l];
      lvl.target = merge_metrics(target_runs);
      lvl.competing_refs_per_sec = comp_refs_sum / seeds;
      lvl.drop_pct = drop_pct(result.solo, lvl.target);
      result.levels.push_back(std::move(lvl));
    }
    for (const SweepLevel& l : result.levels) {
      result.curve.add(l.competing_refs_per_sec, l.drop_pct);
    }
    result.curve.finalize();
    out.push_back(std::move(result));
  }
  return out;
}

}  // namespace pp::core

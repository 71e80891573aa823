#include "api/artifacts.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "api/session.hpp"
#include "base/check.hpp"
#include "base/strings.hpp"
#include "base/table.hpp"
#include "click/parser.hpp"
#include "core/throttle.hpp"
#include "model/cache_model.hpp"

namespace pp::api {

namespace {

using namespace pp::core;

using Runs = std::vector<std::shared_ptr<const ScenarioResult>>;

void header(std::string& out, const char* artifact, const char* description, Scale scale) {
  out += banner(std::string(artifact) + " — " + description);
  out += strformat("scale=%s (set REPRO_SCALE=quick|standard|full)\n\n", to_string(scale));
}

void chart(std::string& out, const std::string& title, const SeriesChart& c) {
  out += title + "\n" + c.to_text() + "\nCSV:\n" + c.to_csv() + "\n";
}

void table(std::string& out, const char* title, const TextTable& t) {
  out += std::string(title) + "\n" + t.to_text() + "\nCSV:\n" + t.to_csv() + "\n";
}

/// The `n` fan-out results starting at slot `at`.
[[nodiscard]] Runs slice(const Runs& runs, std::size_t at, std::size_t n) {
  return {runs.begin() + static_cast<std::ptrdiff_t>(at),
          runs.begin() + static_cast<std::ptrdiff_t>(at + n)};
}

[[nodiscard]] std::vector<FlowSpec> realistic_targets() {
  std::vector<FlowSpec> targets;
  for (const FlowType t : kRealisticTypes) targets.push_back(FlowSpec::of(t));
  return targets;
}

/// The pairwise grid cell of Figures 2/5/8: `target` on core 0 co-running
/// with 5 `comp` flows on its socket, everything NUMA-local.
[[nodiscard]] Scenario pairwise_scenario(const Testbed& tb, FlowType target, FlowType comp,
                                         std::uint64_t run_seed) {
  RunConfig cfg = tb.configure({FlowSpec::of(target)}, run_seed);
  for (int i = 0; i < 5; ++i) {
    cfg.flows.push_back(FlowSpec::of(comp, static_cast<std::uint64_t>(i + 2)));
    cfg.placement.push_back(FlowPlacement{1 + i, -1});
  }
  return Scenario::of(tb, cfg);
}

/// One pairwise cell pooled over its seed runs: the target's merged metrics
/// and the mean of the competitors' measured refs/sec.
struct PairwiseCell {
  FlowMetrics target;
  double competing_refs_per_sec = 0;
};

[[nodiscard]] PairwiseCell pool_cell(const Runs& runs) {
  std::vector<FlowMetrics> pooled;
  pooled.reserve(runs.size());
  double refs_sum = 0;
  for (const auto& r : runs) {
    pooled.push_back((*r)[0]);
    double refs = 0;
    for (std::size_t i = 1; i < r->size(); ++i) refs += (*r)[i].refs_per_sec();
    refs_sum += refs;
  }
  return {merge_metrics(pooled), refs_sum / static_cast<double>(runs.size())};
}

// ------------------------------------------------------------------ Table 1

/// Table 1: characteristics of each packet-processing type during a solo run.
void render_table1(ViewStack& v, std::string& out) {
  header(out, "Table 1", "solo-run characteristics of IP, MON, FW, RE, VPN", v.tb.scale());

  table(out, "Measured (this reproduction):", v.solo.table1());

  TextTable paper({"Flow", "cycles per instruction", "L3 refs/sec (M)", "L3 hits/sec (M)",
                   "cycles per packet", "L3 refs per packet", "L3 misses per packet",
                   "L2 hits per packet"});
  paper.add_numeric_row("IP", {1.33, 25.85, 20.21, 1813, 14.64, 3.19, 18.58});
  paper.add_numeric_row("MON", {1.43, 27.26, 21.32, 2278, 19.40, 4.23, 19.58});
  paper.add_numeric_row("FW", {1.63, 2.71, 2.13, 23907, 20.22, 4.29, 56.10});
  paper.add_numeric_row("RE", {1.18, 18.18, 5.52, 27433, 155.87, 108.51, 45.63});
  paper.add_numeric_row("VPN", {0.56, 9.45, 7.08, 8679, 25.63, 6.41, 30.71});
  table(out, "Paper (Dobrescu et al., Table 1), for comparison:", paper);
}

// ----------------------------------------------------------------- Figure 2

/// Figure 2: the effect of resource contention. (a) per-scenario drop: each
/// target type X co-runs with 5 flows of type Y; (b) average drop per target
/// type across all 5 scenarios.
void render_fig2(ViewStack& v, std::string& out) {
  header(out, "Figure 2", "contention-induced drop for all 25 pairwise scenarios", v.tb.scale());
  const int seeds = v.solo.seeds();

  // The whole 5x5 grid — every (target, competitor, seed) cell plus the
  // five solo baselines — as one scenario fan-out.
  std::vector<Scenario> jobs;
  for (const FlowType target : kRealisticTypes) {
    for (const Scenario& s : v.solo.plan(FlowSpec::of(target))) jobs.push_back(s);
    for (const FlowType comp : kRealisticTypes) {
      for (int s = 0; s < seeds; ++s) {
        jobs.push_back(
            pairwise_scenario(v.tb, target, comp, static_cast<std::uint64_t>(s + 1) * 6151));
      }
    }
  }
  const Runs runs = v.solo.store().get_or_run_many(jobs, v.solo.threads());
  const auto n = static_cast<std::size_t>(seeds);
  const std::size_t per_target = n * 6;  // solo + 5 cells

  TextTable a({"target", "5 IP co-runners", "5 MON co-runners", "5 FW co-runners",
               "5 RE co-runners", "5 VPN co-runners"});
  std::vector<double> avg;
  for (std::size_t t = 0; t < 5; ++t) {
    const std::size_t base = t * per_target;
    const FlowMetrics solo = SoloProfiler::merge_plan(slice(runs, base, n));
    std::vector<double> row;
    double sum = 0;
    for (std::size_t c = 0; c < 5; ++c) {
      const double drop = drop_pct(solo, pool_cell(slice(runs, base + n * (1 + c), n)).target);
      row.push_back(drop);
      sum += drop;
    }
    a.add_numeric_row(to_string(kRealisticTypes[t]), row, 1);
    avg.push_back(sum / 5.0);
  }
  table(out, "Figure 2(a): performance drop (%) per scenario:", a);

  TextTable b({"target", "average drop (%)", "paper (%)"});
  const double paper_avg[] = {18.81, 20.86, 4.65, 6.34, 9.84};
  for (std::size_t i = 0; i < 5; ++i) {
    b.add_numeric_row(to_string(kRealisticTypes[i]), {avg[i], paper_avg[i]}, 2);
  }
  table(out, "Figure 2(b): average drop per target type:", b);
}

// ----------------------------------------------------------------- Figure 4

/// Figure 4: the effect of contention for different resources. Each
/// realistic flow type co-runs with 5 SYN flows of ramping aggressiveness
/// under the three Figure 3 placements: (a) cache-only — competitors on the
/// target's socket, data remote; (b) memctrl-only — competitors on the other
/// socket, data local to the target's domain; (c) both — normal NUMA-local
/// placement. The five per-type sweeps of each placement fan out together
/// (sweep_many).
void render_fig4(ViewStack& v, std::string& out) {
  header(out, "Figure 4", "drop vs competing L3 refs/sec, per contended resource", v.tb.scale());

  const auto levels = SweepProfiler::default_levels(v.tb.scale());
  const std::vector<FlowSpec> targets = realistic_targets();

  const struct {
    ContentionMode mode;
    const char* figure;
  } parts[] = {
      {ContentionMode::kCacheOnly, "Figure 4(a): contention for the L3 cache only"},
      {ContentionMode::kMemCtrlOnly, "Figure 4(b): contention for the memory controller only"},
      {ContentionMode::kBoth, "Figure 4(c): contention for both resources"},
  };

  for (const auto& part : parts) {
    SeriesChart c("competing L3 refs/sec (M)", {"IP", "MON", "FW", "RE", "VPN"});
    // Levels align by index across targets; x = mean competing refs.
    const std::vector<SweepResult> results = v.sweep.sweep_many(targets, part.mode, levels);
    for (std::size_t level = 0; level < levels.size(); ++level) {
      double x = 0;
      std::vector<double> ys;
      for (const SweepResult& r : results) {
        x += r.levels[level].competing_refs_per_sec / 1e6;
        ys.push_back(r.levels[level].drop_pct);
      }
      c.add_point(x / static_cast<double>(results.size()), ys);
    }
    chart(out, part.figure, c);
  }

  out +=
      "Paper's qualitative result to compare against: the cache dominates\n"
      "(MON up to ~32% in 4(a)) while the controller alone stays small\n"
      "(MON <= 6% in 4(b)); 4(c) is essentially 4(a) plus a few points.\n";
}

// ----------------------------------------------------------------- Figure 5

/// Figure 5: merge of Figures 2(a) and 4(c) — each type's drop when
/// co-running with SYN flows (curves) and with realistic flows (individual
/// points), both plotted against the competitors' measured cache refs/sec.
/// The paper's key evidence that damage tracks competing refs/sec, not
/// competitor type.
void render_fig5(ViewStack& v, std::string& out) {
  header(out, "Figure 5", "SYN curves vs realistic-competitor points, same refs/sec axis",
         v.tb.scale());

  // All five SYN sweeps (with their solo baselines), then all 25
  // realistic-competitor cells.
  const std::vector<SweepResult> sweeps = v.sweep.sweep_many(
      realistic_targets(), ContentionMode::kBoth, SweepProfiler::default_levels(v.tb.scale()));
  std::vector<Scenario> cells;
  for (const FlowType target : kRealisticTypes) {
    for (const FlowType comp : kRealisticTypes) {
      cells.push_back(pairwise_scenario(v.tb, target, comp, 1));
    }
  }
  const Runs cell_runs = v.solo.store().get_or_run_many(cells, v.solo.threads());

  for (std::size_t t = 0; t < 5; ++t) {
    const FlowType target = kRealisticTypes[t];
    const FlowMetrics solo = v.solo.profile(target);
    SeriesChart c("competing L3 refs/sec (M)",
                  {std::string(to_string(target)) + "(S) synthetic",
                   std::string(to_string(target)) + "(R) realistic"});
    for (const SweepLevel& l : sweeps[t].levels) {
      c.add_point(l.competing_refs_per_sec / 1e6, {l.drop_pct, std::nan("")});
    }
    for (std::size_t comp = 0; comp < 5; ++comp) {
      const ScenarioResult& run = *cell_runs[t * 5 + comp];
      double refs = 0;
      for (std::size_t i = 1; i < run.size(); ++i) refs += run[i].refs_per_sec();
      c.add_point(refs / 1e6, {std::nan(""), drop_pct(solo, run[0])});
    }
    chart(out, std::string("Figure 5, target ") + to_string(target) + ":", c);
  }
}

// ----------------------------------------------------------------- Figure 6

/// Figure 6: estimated maximum performance drop (Equation 1, kappa = 1) as a
/// function of solo cache hits/sec, for delta in {30, 43.75, 60} ns, plus the
/// measured solo hits/sec of each realistic flow type as annotated points.
void render_fig6(ViewStack& v, std::string& out) {
  header(out, "Figure 6", "Equation-1 worst-case drop vs solo hits/sec", v.tb.scale());

  SeriesChart c("solo cache hits/sec (M)", {"delta=60ns", "delta=43.75ns", "delta=30ns"});
  for (double h = 0; h <= 60e6; h += 2.5e6) {
    c.add_point(h / 1e6, {model::worst_case_drop(h, 60e-9) * 100.0,
                          model::worst_case_drop(h, 43.75e-9) * 100.0,
                          model::worst_case_drop(h, 30e-9) * 100.0});
  }
  chart(out, "Worst-case drop (%) vs solo hits/sec:", c);

  TextTable points({"Flow", "solo hits/sec (M)", "worst-case drop % (delta=43.75ns)",
                    "paper's annotated point (%)"});
  const double paper_points[] = {47, 48, 9, 19, 24};
  for (std::size_t i = 0; i < 5; ++i) {
    const FlowType t = kRealisticTypes[i];
    const double h = v.solo.profile(t).hits_per_sec();
    points.add_numeric_row(
        to_string(t), {h / 1e6, model::worst_case_drop(h, 43.75e-9) * 100.0, paper_points[i]},
        1);
  }
  table(out, "Measured per-app points:", points);
}

// ----------------------------------------------------------------- Figure 7

/// Hit-to-miss conversion rate of one counter domain, per packet, relative
/// to the solo run: kappa = 1 - hits_pp(corun) / hits_pp(solo).
[[nodiscard]] double conversion(const sim::Counters& solo, std::uint64_t solo_packets,
                                const sim::Counters& corun, std::uint64_t corun_packets) {
  const double solo_hits = static_cast<double>(solo.l3_hits()) / static_cast<double>(solo_packets);
  const double corun_hits =
      static_cast<double>(corun.l3_hits()) / static_cast<double>(corun_packets);
  if (solo_hits <= 0) return 0.0;
  const double kappa = 1.0 - corun_hits / solo_hits;
  return std::max(0.0, std::min(1.0, kappa)) * 100.0;
}

[[nodiscard]] const sim::Counters* find_element(const FlowMetrics& m, const std::string& name,
                                                std::uint64_t* packets) {
  for (const auto& e : m.elements) {
    if (e.name == name) {
      *packets = m.delta.packets;
      return &e.delta;
    }
  }
  return nullptr;
}

/// Figure 7: measured vs model-estimated hit-to-miss conversion rate of a
/// MON flow sharing the cache with SYN competitors (the Figure 3(a)
/// placement), plus the measured conversion of MON's individual functions:
/// flow_statistics, radix_ip_lookup, check_ip_header, skb_recycle.
void render_fig7(ViewStack& v, std::string& out) {
  header(out, "Figure 7", "measured vs modeled hit-to-miss conversion (MON)", v.tb.scale());

  const FlowMetrics mon_solo = v.solo.profile(FlowType::kMon);
  const SweepResult r = v.sweep.sweep(FlowSpec::of(FlowType::kMon), ContentionMode::kCacheOnly,
                                      SweepProfiler::default_levels(v.tb.scale()));

  // Appendix model parameters: the shared cache in lines; MON's cacheable
  // chunks approximated by its flow table (the uniformly accessed structure
  // the model describes best, as the paper notes).
  model::CacheModelParams params;
  params.cache_lines = v.tb.machine_config().l3.num_lines();
  params.target_chunks =
      static_cast<double>(v.tb.sizes().flow_buckets) / 2.0;  // 32B entries, 2/line
  params.target_hits_per_sec = mon_solo.hits_per_sec();

  SeriesChart c("competing L3 refs/sec (M)",
                {"MON (measured)", "MON (estimated)", "radix_ip_lookup", "flow_statistics",
                 "check_ip_header", "skb_recycle"});
  const struct {
    const char* element;
    const char* label;
  } functions[] = {{"lookup", "radix_ip_lookup"},
                   {"stats", "flow_statistics"},
                   {"check", "check_ip_header"},
                   {"skb_recycle", "skb_recycle"}};

  for (const SweepLevel& level : r.levels) {
    params.competing_refs_per_sec = level.competing_refs_per_sec;
    std::vector<double> ys;
    ys.push_back(conversion(mon_solo.delta, mon_solo.delta.packets, level.target.delta,
                            level.target.delta.packets));
    ys.push_back(model::conversion_rate(params) * 100.0);
    for (const auto& fn : functions) {
      std::uint64_t solo_pkts = 0;
      std::uint64_t corun_pkts = 0;
      const sim::Counters* s = find_element(mon_solo, fn.element, &solo_pkts);
      const sim::Counters* k = find_element(level.target, fn.element, &corun_pkts);
      ys.push_back(s != nullptr && k != nullptr ? conversion(*s, solo_pkts, *k, corun_pkts)
                                                : std::nan(""));
    }
    c.add_point(level.competing_refs_per_sec / 1e6, ys);
  }
  chart(out, "Conversion rate (%) vs competing refs/sec:", c);

  out +=
      "Expected shape (paper): sharp rise then plateau; flow_statistics\n"
      "tracks the model (uniform access), check_ip_header and skb_recycle\n"
      "stay near zero (per-packet-hot lines), radix_ip_lookup in between.\n";
}

// ----------------------------------------------------------------- Figure 8

/// Figure 8: prediction errors for the 25 pairwise workloads. (a) our
/// prediction (competitors assumed at their solo refs/sec); (b) prediction
/// with perfect knowledge of the measured competing refs/sec; (c) average
/// absolute error per target type, both variants.
void render_fig8(ViewStack& v, std::string& out) {
  header(out, "Figure 8", "prediction error per pairwise scenario", v.tb.scale());
  const int seeds = v.solo.seeds();
  const auto n = static_cast<std::size_t>(seeds);

  // Offline profiling (solo + SYN sweep per type) fans out via sweep_many,
  // the measured 5x5 grid in a second store request.
  (void)v.sweep.sweep_many(realistic_targets(), ContentionMode::kBoth,
                           SweepProfiler::default_levels(v.tb.scale()));
  std::vector<Scenario> cells;
  for (const FlowType target : kRealisticTypes) {
    for (const FlowType comp : kRealisticTypes) {
      for (int s = 0; s < seeds; ++s) {
        cells.push_back(
            pairwise_scenario(v.tb, target, comp, static_cast<std::uint64_t>(s + 1) * 2741));
      }
    }
  }
  const Runs cell_runs = v.solo.store().get_or_run_many(cells, v.solo.threads());

  TextTable a({"target", "5 IP", "5 MON", "5 FW", "5 RE", "5 VPN"});
  TextTable b({"target", "5 IP", "5 MON", "5 FW", "5 RE", "5 VPN"});
  TextTable c({"target", "avg |error| (ours)", "avg |error| (perfect knowledge)",
               "paper ours", "paper perfect"});
  const double paper_ours[] = {1.96, 1.92, 0.44, 1.97, 1.00};
  const double paper_known[] = {1.39, 1.41, 0.35, 1.44, 0.69};

  for (std::size_t ti = 0; ti < 5; ++ti) {
    const FlowType target = kRealisticTypes[ti];
    const FlowMetrics solo = v.solo.profile(target);
    // One curve aggregation per target row (the five cells share it); the
    // competitor-refs summation below mirrors predict() exactly.
    const SweepCurve curve = v.predictor.curve(target);
    std::vector<double> row_a;
    std::vector<double> row_b;
    double abs_a = 0;
    double abs_b = 0;
    for (std::size_t ci = 0; ci < 5; ++ci) {
      const PairwiseCell cell = pool_cell(slice(cell_runs, (ti * 5 + ci) * n, n));
      const double actual = drop_pct(solo, cell.target);
      const double comp_solo_refs = v.predictor.solo_refs_per_sec(kRealisticTypes[ci]);
      double solo_refs_sum = 0;
      for (int k = 0; k < 5; ++k) solo_refs_sum += comp_solo_refs;
      const double ours = curve.drop_at(solo_refs_sum);
      const double known = curve.drop_at(cell.competing_refs_per_sec);
      row_a.push_back(ours - actual);
      row_b.push_back(known - actual);
      abs_a += std::abs(ours - actual);
      abs_b += std::abs(known - actual);
    }
    a.add_numeric_row(to_string(target), row_a, 2);
    b.add_numeric_row(to_string(target), row_b, 2);
    c.add_numeric_row(to_string(target),
                      {abs_a / 5.0, abs_b / 5.0, paper_ours[ti], paper_known[ti]}, 2);
  }
  table(out, "Figure 8(a): signed error, our prediction (points):", a);
  table(out, "Figure 8(b): signed error, perfect knowledge of competition:", b);
  table(out, "Figure 8(c): average absolute error per target type:", c);
}

// ----------------------------------------------------------------- Figure 9

/// Figure 9: prediction for a mixed workload — 2 MON, 2 VPN, 1 FW, 1 RE per
/// processor (12 flows total). Measured vs predicted drop per flow, and the
/// absolute error (the paper's max error on this mix is 1.26%).
void render_fig9(ViewStack& v, std::string& out) {
  header(out, "Figure 9", "mixed workload: 2 MON + 2 VPN + 1 FW + 1 RE per socket",
         v.tb.scale());

  // One socket's mix; both sockets carry the same combination.
  const FlowType socket_mix[] = {FlowType::kMon, FlowType::kMon, FlowType::kVpn,
                                 FlowType::kVpn, FlowType::kFw,  FlowType::kRe};

  RunConfig cfg = v.tb.configure({});
  for (int sock = 0; sock < 2; ++sock) {
    for (int i = 0; i < 6; ++i) {
      cfg.flows.push_back(
          FlowSpec::of(socket_mix[i], static_cast<std::uint64_t>(sock * 6 + i + 1)));
      cfg.placement.push_back(FlowPlacement{sock * 6 + i, -1});
    }
  }
  const ScenarioResult& run = *v.solo.store().get_or_run(Scenario::of(v.tb, cfg));

  TextTable t({"flow", "measured drop (%)", "predicted drop (%)", "absolute error"});
  double max_err = 0;
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    const FlowType target = cfg.flows[i].type;
    const int socket = cfg.placement[i].core / 6;
    // Competitors: the other five flows on the same socket.
    std::vector<FlowType> comps;
    for (std::size_t j = 0; j < cfg.flows.size(); ++j) {
      if (j != i && cfg.placement[j].core / 6 == socket) comps.push_back(cfg.flows[j].type);
    }
    const double actual = drop_pct(v.solo.profile(target), run[i]);
    const double predicted = v.predictor.predict(target, comps);
    const double err = std::abs(predicted - actual);
    max_err = std::max(max_err, err);
    t.add_numeric_row(std::string(to_string(target)) + " (core " +
                          std::to_string(cfg.placement[i].core) + ")",
                      {actual, predicted, err}, 2);
  }
  table(out, "Figure 9: measured vs predicted drop per flow:", t);
  out += strformat("max absolute error: %.2f points (paper: 1.26)\n", max_err);
}

// ---------------------------------------------------------------- Figure 10

[[nodiscard]] std::vector<FlowSpec> combo(
    std::initializer_list<std::pair<FlowType, int>> parts) {
  std::vector<FlowSpec> flows;
  std::uint64_t seed = 1;
  for (const auto& [type, count] : parts) {
    for (int i = 0; i < count; ++i) flows.push_back(FlowSpec::of(type, seed++));
  }
  return flows;
}

/// Figure 10: the benefit of contention-aware scheduling. For several
/// 12-flow combinations, measure the average per-flow drop under the worst
/// and best flow-to-socket placements; the gap bounds what contention-aware
/// scheduling could buy. The paper's headline: 2% for realistic mixes
/// (6 MON + 6 FW), 6% for the adversarial 6 SYN_MAX + 6 FW mix.
void render_fig10(ViewStack& v, std::string& out) {
  header(out, "Figure 10", "best vs worst flow-to-core placement", v.tb.scale());

  const struct {
    const char* name;
    std::vector<FlowSpec> flows;
  } combos[] = {
      {"6 MON + 6 FW", combo({{FlowType::kMon, 6}, {FlowType::kFw, 6}})},
      {"6 IP + 6 MON", combo({{FlowType::kIp, 6}, {FlowType::kMon, 6}})},
      {"6 MON + 6 RE", combo({{FlowType::kMon, 6}, {FlowType::kRe, 6}})},
      {"6 VPN + 6 FW", combo({{FlowType::kVpn, 6}, {FlowType::kFw, 6}})},
      {"3 IP + 3 MON + 3 RE + 3 FW",
       combo({{FlowType::kIp, 3}, {FlowType::kMon, 3}, {FlowType::kRe, 3}, {FlowType::kFw, 3}})},
      {"6 SYN_MAX + 6 FW", combo({{FlowType::kSynMax, 6}, {FlowType::kFw, 6}})},
  };

  TextTable a({"combination", "best placement avg drop (%)", "worst placement avg drop (%)",
               "scheduling benefit (points)", "placements evaluated"});
  std::optional<PlacementStudy> mon_fw;  // combos[0]
  for (const auto& c : combos) {
    const PlacementStudy s = v.placement.evaluate(c.flows);
    a.add_row({c.name, strformat("%.2f", s.best.avg_drop_pct),
               strformat("%.2f", s.worst.avg_drop_pct),
               strformat("%.2f", s.worst.avg_drop_pct - s.best.avg_drop_pct),
               std::to_string(s.placements_evaluated)});
    if (!mon_fw.has_value()) mon_fw = s;
  }
  table(out, "Figure 10(a): average drop under best/worst placement:", a);

  TextTable b({"flow", "best placement drop (%)", "worst placement drop (%)"});
  const auto& flows = combos[0].flows;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    b.add_numeric_row(std::string(to_string(flows[i].type)) + " #" + std::to_string(i),
                      {mon_fw->best.per_flow_drop[i], mon_fw->worst.per_flow_drop[i]}, 1);
  }
  table(out, "Figure 10(b): per-flow drop for the 6 MON + 6 FW combination:", b);
  out +=
      "Paper: worst = all 6 MON on one socket (each ~27%); best = 3+3 split\n"
      "(each ~21%); overall gap ~2%. Adversarial SYN_MAX mix gap ~6%.\n";
}

// ---------------------------------------------------------- NUMA (Sec. 2.2)

/// Section 2.2 ablation: NUMA-local vs remote data placement. The paper
/// allocates each flow's data through the local memory controller because
/// remote access "has a significant impact on memory-access latency" and
/// would drag the QPI interconnect into every experiment.
void render_numa(ViewStack& v, std::string& out) {
  header(out, "NUMA ablation", "local vs remote data placement per flow type", v.tb.scale());

  // Every type's local then remote solo run, as one scenario fan-out.
  std::vector<Scenario> jobs;
  for (const FlowType type : kRealisticTypes) {
    const RunConfig local = v.tb.configure({FlowSpec::of(type)});
    RunConfig remote = local;
    remote.placement[0].data_domain = 1;  // data on the far socket
    jobs.push_back(Scenario::of(v.tb, local));
    jobs.push_back(Scenario::of(v.tb, remote));
  }
  const Runs runs = v.solo.store().get_or_run_many(jobs, v.solo.threads());

  TextTable t({"flow", "local pps (M)", "remote pps (M)", "slowdown (%)",
               "remote refs/packet"});
  for (std::size_t i = 0; i < 5; ++i) {
    const FlowMetrics& l = (*runs[2 * i])[0];
    const FlowMetrics& r = (*runs[2 * i + 1])[0];
    t.add_numeric_row(to_string(kRealisticTypes[i]),
                      {l.pps() / 1e6, r.pps() / 1e6, drop_pct(l, r),
                       r.per_packet(r.delta.remote_refs)},
                      2);
  }
  table(out, "Solo throughput, data local vs remote:", t);
}

// -------------------------------------------------- pipelining (Sec. 2.2)

/// Build a router from raw Click text: parse, pin each named task element
/// to its core, initialize, install tasks. For the runs no FlowSpec expresses (the
/// pipelining configurations and the throttle attacker).
void build_router(click::Router& router, const std::string& text,
                  const std::vector<std::pair<std::string, int>>& bindings = {}) {
  auto err = click::parse_config(text, default_registry(), router);
  PP_CHECK(!err.has_value());
  for (const auto& [name, core] : bindings) {
    err = router.bind_driver(name, core);
    PP_CHECK(!err.has_value());
  }
  err = router.initialize();
  PP_CHECK(!err.has_value());
  err = router.install_tasks();
  PP_CHECK(!err.has_value());
}

constexpr double kPipelineWarmMs = 2.0;
constexpr double kPipelineMeasureMs = 6.0;

struct PipelineConfig {
  const char* name;
  std::string (*text)(int batch, unsigned long long prefixes);
  std::vector<std::pair<std::string, int>> bindings;
};

/// (a) A realistic IP chain on one core, and (b) the same chain split
/// across two cores with a Queue handoff: the paper measures 10-15 extra
/// cache misses per packet from pipelining. (c) The paper's contrived
/// counter-example, >200 random accesses per packet over a 24MB structure
/// (2 x L3), run monolithically, and (d) split into two 12MB halves with
/// the second stage on the far socket, where each half enjoys a whole L3.
/// The second stage's table stays in the router's domain (0); the win
/// comes from the private L3.
const std::vector<PipelineConfig>& pipeline_configs() {
  static const std::vector<PipelineConfig> configs = {
      {"parallel_ip",
       [](int batch, unsigned long long prefixes) {
         return strformat(R"(
           src :: FromDevice(RANDOM, BYTES 64, SEED 11, BATCH %d);
           chk :: CheckIPHeader;
           lkp :: RadixIPLookup(PREFIXES %llu, SEED 3);
           ttl :: DecIPTTL;
           out :: ToDevice;
           src -> chk -> lkp -> ttl -> out;
         )", batch, prefixes);
       },
       {}},
      {"pipelined_ip",
       [](int batch, unsigned long long prefixes) {
         return strformat(R"(
           src :: FromDevice(RANDOM, BYTES 64, SEED 11, BATCH %d);
           chk :: CheckIPHeader;
           q :: Queue(512);
           uq :: Unqueue(BATCH %d);
           lkp :: RadixIPLookup(PREFIXES %llu, SEED 3);
           ttl :: DecIPTTL;
           out :: ToDevice;
           src -> chk -> q -> uq -> lkp -> ttl -> out;
         )", batch, batch, prefixes);
       },
       {{"uq", 1}}},
      {"mono_syn",
       [](int batch, unsigned long long) {
         return strformat(R"(
           src :: FromDevice(RANDOM, BYTES 64, SEED 11, BATCH %d);
           syn :: SynProcessor(READS 220, INSTR 100, TABLE_MB 24);
           out :: ToDevice;
           src -> syn -> out;
         )", batch);
       },
       {}},
      {"split_syn",
       [](int batch, unsigned long long) {
         return strformat(R"(
           src :: FromDevice(RANDOM, BYTES 64, SEED 11, BATCH %d);
           syn1 :: SynProcessor(READS 110, INSTR 50, TABLE_MB 12);
           q :: Queue(512);
           uq :: Unqueue(BATCH %d);
           syn2 :: SynProcessor(READS 110, INSTR 50, TABLE_MB 12);
           out :: ToDevice;
           src -> syn1 -> q -> uq -> syn2 -> out;
         )", batch, batch);
       },
       {{"uq", 6}}},
  };
  return configs;
}

PipelineRun run_pipeline_config(const Testbed& tb, const PipelineConfig& c, int batch) {
  check_run_guards(kPipelineWarmMs + kPipelineMeasureMs, tb.run_budget_ms(),
                   tb.run_deadline());
  const sim::MachineConfig& mcfg = tb.machine_config();
  sim::Machine machine(mcfg);
  click::Router router(machine, 0, 0, 1);
  build_router(router, c.text(batch, static_cast<unsigned long long>(tb.sizes().prefixes)),
               c.bindings);

  // The scenario engine's protocol (cf. run_scenario): prewarm long-lived
  // structures, then drop the artificial phase's link backlogs and
  // calibration signal so the windows see steady state. One router spans
  // every bound core, so each element prewarms through core 0; far-socket
  // private caches converge during the warm window.
  {
    click::Context cx{machine.core(0)};
    for (const auto& e : router.elements()) e->prewarm(cx);
  }
  machine.align_clocks(machine.max_time());
  machine.memory().clear_link_backlogs();
  machine.memory().reset_sample_calibration();

  const sim::Cycles warm = machine.max_time() + mcfg.ms_to_cycles(kPipelineWarmMs);
  machine.run_until(warm);
  sim::Counters before;
  for (int i = 0; i < machine.num_cores(); ++i) before += machine.core(i).counters();
  const sim::Cycles t0 = machine.max_time();
  const auto host_t0 = std::chrono::steady_clock::now();
  machine.run_until(warm + mcfg.ms_to_cycles(kPipelineMeasureMs));
  const auto host_t1 = std::chrono::steady_clock::now();
  sim::Counters after;
  for (int i = 0; i < machine.num_cores(); ++i) after += machine.core(i).counters();
  const sim::Counters d = after - before;
  const double secs = static_cast<double>(machine.max_time() - t0) / mcfg.hz();
  const auto packets = static_cast<double>(d.packets);

  PipelineRun r;
  r.name = c.name;
  r.pps = packets / secs;
  r.l3_refs_per_packet = static_cast<double>(d.l3_refs) / packets;
  r.xcore_per_packet = static_cast<double>(d.xcore_hits) / packets;
  r.host_seconds = std::chrono::duration<double>(host_t1 - host_t0).count();
  return r;
}

/// Section 2.2 ablation: parallel vs pipelined parallelization. Every
/// configuration runs per packet (BATCH 1).
void render_pipeline(ViewStack& v, std::string& out) {
  header(out, "Section 2.2 ablation", "parallel vs pipelined parallelization", v.tb.scale());
  const std::vector<PipelineRun> runs = run_pipeline_configs(v.tb, 1);

  const PipelineRun& par = runs[0];
  const PipelineRun& pipe = runs[1];
  TextTable t({"configuration", "throughput (Mpps)", "L3 refs/packet (all cores)",
               "cross-core transfers/packet"});
  t.add_numeric_row("parallel (1 core)",
                    {par.pps / 1e6, par.l3_refs_per_packet, par.xcore_per_packet}, 2);
  t.add_numeric_row("pipelined (2 cores)",
                    {pipe.pps / 1e6, pipe.l3_refs_per_packet, pipe.xcore_per_packet}, 2);
  table(out, "IP chain, parallel vs pipelined:", t);
  out += strformat(
      "extra shared-cache references per packet from pipelining: %.1f\n"
      "(paper: pipelining costs 10-15 extra cache misses per packet)\n\n",
      pipe.l3_refs_per_packet - par.l3_refs_per_packet);

  const PipelineRun& mono = runs[2];
  const PipelineRun& split = runs[3];
  TextTable t2({"configuration", "throughput (Mpps)", "L3 refs/packet"});
  t2.add_numeric_row("parallel (1 core, 24MB table)",
                     {mono.pps / 1e6, mono.l3_refs_per_packet}, 3);
  t2.add_numeric_row("pipelined (2 sockets, 12MB each)",
                     {split.pps / 1e6, split.l3_refs_per_packet}, 3);
  table(out, "Contrived workload (>200 accesses, 2xL3 structure):", t2);
  out +=
      "paper: only this contrived shape favors pipelining; every realistic\n"
      "workload prefers the parallel approach.\n\n";
}

// ------------------------------------------------------ throttle (Sec. 4)

struct ThrottleOutcome {
  double attacker_refs_before = 0;  // refs/s while benign
  double attacker_refs_after = 0;   // refs/s in the final window
  double victim_pps = 0;
};

/// One governed/ungoverned run: 80 monitoring windows of 0.25 ms (20 ms).
constexpr int kThrottleWindows = 80;
constexpr double kThrottleWindowMs = 0.25;

/// One attacker/victim run. The attacker is a Click config no FlowSpec
/// expresses, and the governor mutates the machine mid-run, so the run
/// drives its own Machine and is never stored.
ThrottleOutcome run_throttle(bool governed, const Testbed& tb) {
  check_run_guards(kThrottleWindows * kThrottleWindowMs, tb.run_budget_ms(),
                   tb.run_deadline());
  sim::Machine machine(tb.machine_config());
  const sim::MachineConfig& mcfg = tb.machine_config();

  // Attacker on core 0 (with its control element); victim MON on core 1.
  click::Router attacker(machine, 0, 0, 7);
  build_router(attacker, R"(
    src :: FromDevice(RANDOM, BYTES 64, SEED 3, BUFS 256);
    ctl :: ControlShim(INSTR 0);
    syn :: SynProcessor(READS 0, INSTR 400, ALT_READS 32, ALT_INSTR 0,
                        TRIG_AFTER 20000, TABLE_MB 12);
    out :: ToDevice;
    src -> ctl -> syn -> out;
  )");

  click::Router victim(machine, 1, 0, 8);
  auto err =
      build_flow(victim, FlowSpec::of(FlowType::kMon, 9), tb.sizes(), default_registry());
  PP_CHECK(!err.has_value());
  err = victim.initialize();
  PP_CHECK(!err.has_value());
  err = victim.install_tasks();
  PP_CHECK(!err.has_value());

  // Profiled envelope for the benign mode (measured offline: ~a few M/s).
  AggressivenessGovernor governor({{0, 10e6}});
  const std::vector<FlowHandle> handles = {{0, 0, FlowType::kFw, &attacker},
                                           {1, 1, FlowType::kMon, &victim}};

  const sim::Cycles window = mcfg.ms_to_cycles(kThrottleWindowMs);
  ThrottleOutcome out;
  std::uint64_t refs_mark = 0;
  sim::Cycles time_mark = 0;
  std::uint64_t victim_packets_mark = 0;

  for (int w = 1; w <= kThrottleWindows; ++w) {
    machine.run_until(static_cast<sim::Cycles>(w) * window);
    if (governed) governor(machine, handles);
    const auto& c0 = machine.core(0);
    if (w == 16) {  // end of the benign phase
      out.attacker_refs_before = static_cast<double>(c0.counters().l3_refs) /
                                 (static_cast<double>(c0.now()) / mcfg.hz());
    }
    if (w == 64) {  // start of the final measurement window
      refs_mark = c0.counters().l3_refs;
      time_mark = c0.now();
      victim_packets_mark = machine.core(1).counters().packets;
    }
  }
  const auto& c0 = machine.core(0);
  const double dt = static_cast<double>(c0.now() - time_mark) / mcfg.hz();
  out.attacker_refs_after = static_cast<double>(c0.counters().l3_refs - refs_mark) / dt;
  out.victim_pps =
      static_cast<double>(machine.core(1).counters().packets - victim_packets_mark) / dt;
  return out;
}

/// Section 4 ablation: containing hidden aggressiveness. A flow profiles as
/// a mild FW-style workload, then a crafted packet flips it into
/// SYN_MAX-like behavior. The aggressiveness governor monitors per-flow
/// cache refs/sec with the hardware counters and drives the flow's control
/// element until it returns under its profiled envelope — protecting an
/// innocent MON co-runner.
void render_throttle(ViewStack& v, std::string& out) {
  header(out, "Section 4 ablation", "throttling contains a flow that turns aggressive mid-run",
         v.tb.scale());

  const ThrottleOutcome off = run_throttle(false, v.tb);
  const ThrottleOutcome on = run_throttle(true, v.tb);

  TextTable t({"governor", "attacker refs/s benign (M)", "attacker refs/s attack (M)",
               "victim MON throughput (Mpps)"});
  t.add_numeric_row("off", {off.attacker_refs_before / 1e6, off.attacker_refs_after / 1e6,
                            off.victim_pps / 1e6}, 2);
  t.add_numeric_row("on", {on.attacker_refs_before / 1e6, on.attacker_refs_after / 1e6,
                           on.victim_pps / 1e6}, 2);
  table(out, "Attack contained to the profiled envelope (cap 10M refs/s):", t);
  out += strformat(
      "victim recovers %.1f%% of the throughput the attack cost it\n"
      "(paper: throttling pins every flow to its profiled refs/sec).\n",
      off.victim_pps >= on.victim_pps
          ? 0.0
          : 100.0 * (on.victim_pps - off.victim_pps) / off.victim_pps);
}

constexpr Artifact kArtifacts[] = {
    {"table1", seeds_for, render_table1},
    {"fig2", default_seeds, render_fig2},
    {"fig4", default_seeds, render_fig4},
    {"fig5", default_seeds, render_fig5},
    {"fig6", seeds_for, render_fig6},
    {"fig7", default_seeds, render_fig7},
    {"fig8", default_seeds, render_fig8},
    {"fig9", default_seeds, render_fig9},
    {"fig10", default_seeds, render_fig10},
    {"numa", default_seeds, render_numa},
    {"pipeline", default_seeds, render_pipeline},
    {"throttle", default_seeds, render_throttle},
};

}  // namespace

std::span<const Artifact> artifacts() { return kArtifacts; }

const Artifact* find_artifact(std::string_view name) {
  for (const Artifact& a : kArtifacts) {
    if (name == a.name) return &a;
  }
  return nullptr;
}

std::vector<PipelineRun> run_pipeline_configs(const core::Testbed& tb, int batch) {
  std::vector<PipelineRun> runs;
  for (const PipelineConfig& c : pipeline_configs()) {
    runs.push_back(run_pipeline_config(tb, c, batch));
  }
  return runs;
}

std::string artifact_names() {
  std::string out;
  for (const Artifact& a : kArtifacts) {
    if (!out.empty()) out += ", ";
    out += a.name;
  }
  return out;
}

}  // namespace pp::api

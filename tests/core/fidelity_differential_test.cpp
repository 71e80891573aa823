// Cross-fidelity differential harness: a seeded sweep of randomized
// scenarios (element mix x table sizes x placement x BATCH) asserting
//   (a) per-counter drift bounds between the fidelity tiers
//       (exact <-> sampled <-> streamed) — the enforcement behind the
//       paper-style "prediction stays within a few percent" budget now that
//       prediction runs on a simulated testbed, and
//   (b) bit-identical repeatability of every tier, serially and under
//       SWEEP_THREADS-style host parallelism (1 and 4 threads).
//
// The scenarios deliberately use short measurement windows: these are drift
// *gates*, so the bounds below include the short-window noise floor
// (measured headroom ~2x; the 6 ms bench_pipeline windows sit well inside).
// Any future speed lever that biases a statistical tier trips them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "base/rng.hpp"
#include "common/fixtures.hpp"
#include "core/parallel.hpp"
#include "core/scenario.hpp"

namespace pp::core {
namespace {

constexpr int kScenarios = 24;

/// The randomized-but-seeded scenario matrix, at exact fidelity. Axes:
/// element mix (the five Table-1 chains, half the cases with a SYN
/// co-runner), table sizes (prefixes, flow buckets, SYN table), placement
/// (solo / same-socket competitor / far-socket competitor, sometimes with
/// remote data), and driver BATCH (1 or 16).
std::vector<Scenario> scenario_matrix() {
  std::vector<Scenario> out;
  out.reserve(kScenarios);
  Pcg32 rng{0xD1FF2026U};
  constexpr FlowType kTargets[] = {FlowType::kIp, FlowType::kMon, FlowType::kFw,
                                   FlowType::kRe, FlowType::kVpn};
  for (int i = 0; i < kScenarios; ++i) {
    Scenario s;
    s.machine = pp::test::machine_config(sim::SimFidelity::kExact);
    s.sizes = WorkloadSizes::for_scale(Scale::kQuick);
    s.sizes.prefixes = 16'000 + rng.bounded(3) * 24'000;
    s.sizes.flow_buckets = 1ULL << (15 + rng.bounded(3));

    FlowSpec target = FlowSpec::of(kTargets[i % 5], 1 + (i % 3));
    target.batch = (rng.next() & 1U) != 0 ? 16 : 1;
    s.flows.push_back(target);
    s.placement.push_back(FlowPlacement{0, -1});

    const std::uint32_t placement = rng.bounded(3);
    if (placement != 0) {
      SynParams syn;
      syn.reads = 16 + rng.bounded(17);
      syn.instr = 200;
      syn.table_mb = (rng.next() & 1U) != 0 ? 24 : 8;
      s.flows.push_back(FlowSpec::syn_flow(syn, 7));
      FlowPlacement pl;
      pl.core = placement == 1 ? 1 : 6;  // same socket vs far socket
      if (placement == 2 && (rng.next() & 1U) != 0) pl.data_domain = 0;  // remote data
      s.placement.push_back(pl);
    }
    s.warmup_ms = 0.5;
    s.measure_ms = 1.5;
    s.seed = 100 + static_cast<std::uint64_t>(i);
    out.push_back(std::move(s));
  }
  return out;
}

Scenario at_tier(Scenario s, sim::SimFidelity f) {
  s.machine.fidelity = f;
  // Each tier runs with its default adaptive ceiling, exactly as a session
  // at that fidelity configures its Testbed.
  s.machine.sample_period_max =
      api::resolve_sample_period_max(f, s.machine.sample_period, std::nullopt);
  return s;
}

constexpr sim::SimFidelity kTiers[] = {sim::SimFidelity::kExact, sim::SimFidelity::kSampled,
                                       sim::SimFidelity::kStreamed};

/// All (scenario, tier) results, computed once serially and shared by the
/// drift and thread-invariance tests.
struct MatrixResults {
  std::vector<Scenario> scenarios;
  // results[tier][scenario] — target flow (index 0) metrics only.
  std::vector<std::vector<FlowMetrics>> by_tier;
};

const MatrixResults& results() {
  static const MatrixResults r = [] {
    MatrixResults m;
    m.scenarios = scenario_matrix();
    for (const sim::SimFidelity f : kTiers) {
      std::vector<FlowMetrics> tier;
      tier.reserve(m.scenarios.size());
      for (const Scenario& s : m.scenarios) tier.push_back(run_scenario(at_tier(s, f))[0]);
      m.by_tier.push_back(std::move(tier));
    }
    return m;
  }();
  return r;
}

/// Per-counter drift assertions of one statistical tier against exact.
/// `pps_each` / `pps_mean`: per-scenario cap and matrix-wide mean of |pps
/// drift|; likewise refs/packet. The per-scenario refs cap is deliberately
/// loose: the FW chains' rule-scan L2-vs-L3 split is the sampled tier's
/// documented weak counter (up to ~+50% refs/packet at a near-unchanged
/// pps, both tiers alike, inherited from PR 2) — the tight mean cap is
/// what locks the rest of the matrix.
void assert_tier_drift(int tier_index, double pps_each, double pps_mean, double refs_each,
                       double refs_mean, double l1_each) {
  const MatrixResults& m = results();
  const std::vector<FlowMetrics>& exact = m.by_tier[0];
  const std::vector<FlowMetrics>& tier = m.by_tier[static_cast<std::size_t>(tier_index)];
  double pps_abs_sum = 0;
  double refs_abs_sum = 0;
  double pps_max = 0, refs_max = 0, l1_max = 0;
  for (int i = 0; i < kScenarios; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::string what = describe(m.scenarios[idx]) + " [" + std::to_string(i) + "]";
    const double pps_d = pp::test::drift_pct(tier[idx].pps(), exact[idx].pps());
    EXPECT_LE(std::abs(pps_d), pps_each) << what << " pps drift";
    pps_abs_sum += std::abs(pps_d);

    const double refs_d =
        pp::test::drift_pct(tier[idx].refs_per_packet(), exact[idx].refs_per_packet() + 1e-9);
    EXPECT_LE(std::abs(refs_d), refs_each) << what << " L3 refs/packet drift";
    refs_abs_sum += std::abs(refs_d);

    const double l1_d = pp::test::drift_pct(
        tier[idx].per_packet(tier[idx].delta.l1_hits),
        exact[idx].per_packet(exact[idx].delta.l1_hits) + 1e-9);
    EXPECT_LE(std::abs(l1_d), l1_each) << what << " L1 hits/packet drift";
    pps_max = std::max(pps_max, std::abs(pps_d));
    refs_max = std::max(refs_max, std::abs(refs_d));
    l1_max = std::max(l1_max, std::abs(l1_d));
  }
  EXPECT_LE(pps_abs_sum / kScenarios, pps_mean) << "matrix-wide mean |pps drift|";
  EXPECT_LE(refs_abs_sum / kScenarios, refs_mean) << "matrix-wide mean |refs/pkt drift|";
  std::printf("[ measured ] tier %d: pps max/mean %.2f/%.2f%%  refs/pkt max/mean "
              "%.2f/%.2f%%  l1/pkt max %.2f%%\n",
              tier_index, pps_max, pps_abs_sum / kScenarios, refs_max,
              refs_abs_sum / kScenarios, l1_max);
}

TEST(FidelityDifferential, SampledDriftWithinBounds) {
  assert_tier_drift(/*tier_index=*/1, /*pps_each=*/7.0, /*pps_mean=*/2.5,
                    /*refs_each=*/60.0, /*refs_mean=*/12.0, /*l1_each=*/4.0);
}

TEST(FidelityDifferential, StreamedDriftWithinBounds) {
  // The streamed tier adds the adaptive period and the payload-stream
  // model; its budget is slightly looser than sampled's but still within
  // the same few-percent regime.
  assert_tier_drift(/*tier_index=*/2, /*pps_each=*/8.0, /*pps_mean=*/2.5,
                    /*refs_each=*/60.0, /*refs_mean=*/12.0, /*l1_each=*/5.0);
}

// Every tier must reproduce bit-identically when the whole matrix fans out
// over a 4-thread host pool (the sweep engine's execution shape; each job
// writes a pre-assigned slot). The reference it must match is the 1-thread
// pass — results() runs the matrix serially — so this locks repeatability
// at SWEEP_THREADS 1 and 4 in one comparison.
TEST(FidelityDifferential, BitIdenticalAtOneAndFourThreads) {
  const MatrixResults& m = results();
  std::vector<FlowMetrics> redo(kScenarios * 3);
  parallel_for(redo.size(), /*threads=*/4, [&](std::size_t job) {
    const std::size_t tier = job / kScenarios;
    const std::size_t idx = job % kScenarios;
    redo[job] = run_scenario(at_tier(m.scenarios[idx], kTiers[tier]))[0];
  });
  for (std::size_t tier = 0; tier < 3; ++tier) {
    for (std::size_t i = 0; i < kScenarios; ++i) {
      const std::string what = std::string(sim::to_string(kTiers[tier])) + " scenario " +
                               std::to_string(i) + " 4-thread vs serial";
      pp::test::expect_metrics_equal(redo[tier * kScenarios + i], m.by_tier[tier][i],
                                     what.c_str());
    }
  }
}

}  // namespace
}  // namespace pp::core

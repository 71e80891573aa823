// The statistical-tier drift gate: the four Section 2.2 pipelining
// configurations (api::run_pipeline_configs) at BATCH 32 under the sampled
// and streamed tiers must each stay within kPpsTolerancePct simulated
// throughput of the exact tier (docs/simulation_modes.md). The simulated
// columns are deterministic, so a failure means a tier's model changed.
//
// The test also writes BENCH_pipeline.json (schema 4) to its working
// directory, the build tree: per configuration the exact tier's host
// seconds at BATCH 1 and 32 and each statistical tier's at BATCH 32. It is
// written before the gate asserts, so a failing run still leaves its
// numbers.
#include "api/artifacts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/json.hpp"
#include "common/fixtures.hpp"

namespace pp::api {
namespace {

/// Documented statistical-tier-vs-exact simulated-throughput tolerance, in
/// percent, for the sampled and the streamed tier alike.
constexpr double kPpsTolerancePct = 3.5;

constexpr int kBatch = 32;

/// BENCH_pipeline.json layout version. v2 added the streamed fields, v3 a
/// store demo's counters; v4 always carries every tier, at BATCH 32 only
/// for the statistical ones, and drops the store demo.
constexpr int kJsonSchemaVersion = 4;

const char* const kPath = "BENCH_pipeline.json";

struct Tiers {
  std::vector<PipelineRun> per_packet;  // exact, BATCH 1
  std::vector<PipelineRun> batched;     // exact, BATCH kBatch
  std::vector<PipelineRun> sampled;     // sampled, BATCH kBatch
  std::vector<PipelineRun> streamed;    // streamed, BATCH kBatch
};

[[nodiscard]] double pct(double value, double base) { return 100.0 * (value - base) / base; }

[[nodiscard]] double total_host_seconds(const std::vector<PipelineRun>& runs) {
  double s = 0;
  for (const PipelineRun& r : runs) s += r.host_seconds;
  return s;
}

void write_json(std::FILE* f, const Tiers& t, std::uint32_t streamed_period_max) {
  std::fprintf(f,
               "{\n  \"bench\": \"pipeline\",\n  \"schema_version\": %d,\n"
               "  \"scale\": \"quick\",\n  \"host_cpus\": %u,\n"
               "  \"streamed_sample_period_max\": %u,\n  \"batch_size\": %d,\n"
               "  \"pps_tolerance_pct\": %.1f,\n  \"configurations\": [\n",
               kJsonSchemaVersion, std::thread::hardware_concurrency(), streamed_period_max,
               kBatch, kPpsTolerancePct);
  const auto stage = [f](const char* key, const PipelineRun& r) {
    std::fprintf(f,
                 "     \"%s\": {\"host_seconds\": %.6f, \"pps\": %.1f, "
                 "\"l3_refs_per_packet\": %.4f, \"xcore_per_packet\": %.4f},\n",
                 key, r.host_seconds, r.pps, r.l3_refs_per_packet, r.xcore_per_packet);
  };
  for (std::size_t i = 0; i < t.batched.size(); ++i) {
    const PipelineRun& one = t.per_packet[i];
    const PipelineRun& ex = t.batched[i];
    std::fprintf(f, "    {\"name\": \"%s\",\n", ex.name);
    stage("per_packet", one);
    stage("batched", ex);
    stage("sampled_batched", t.sampled[i]);
    std::fprintf(f, "     \"sampled_host_speedup\": %.2f, \"sampled_pps_drift_pct\": %.3f,\n",
                 ex.host_seconds / t.sampled[i].host_seconds, pct(t.sampled[i].pps, ex.pps));
    stage("streamed_batched", t.streamed[i]);
    std::fprintf(f, "     \"streamed_host_speedup\": %.2f, \"streamed_pps_drift_pct\": %.3f,\n",
                 ex.host_seconds / t.streamed[i].host_seconds, pct(t.streamed[i].pps, ex.pps));
    std::fprintf(f,
                 "     \"host_speedup\": %.2f, \"pps_delta_pct\": %.3f, "
                 "\"l3_refs_delta_pct\": %.3f}%s\n",
                 one.host_seconds / ex.host_seconds, pct(ex.pps, one.pps),
                 pct(ex.l3_refs_per_packet, one.l3_refs_per_packet),
                 i + 1 < t.batched.size() ? "," : "");
  }
  const double per_packet = total_host_seconds(t.per_packet);
  const double batched = total_host_seconds(t.batched);
  const double sampled = total_host_seconds(t.sampled);
  const double streamed = total_host_seconds(t.streamed);
  std::fprintf(f, "  ],\n  \"total_host_seconds_per_packet\": %.6f,\n", per_packet);
  std::fprintf(f, "  \"total_host_seconds_batched\": %.6f,\n", batched);
  std::fprintf(f, "  \"total_host_seconds_sampled_batched\": %.6f,\n", sampled);
  std::fprintf(f, "  \"sampled_total_host_speedup\": %.2f,\n", batched / sampled);
  std::fprintf(f, "  \"total_host_seconds_streamed_batched\": %.6f,\n", streamed);
  std::fprintf(f, "  \"streamed_total_host_speedup\": %.2f,\n", batched / streamed);
  std::fprintf(f, "  \"total_host_speedup\": %.2f\n}\n", per_packet / batched);
}

TEST(PipelineDrift, StatisticalTiersTrackExactAtBatch32) {
  const core::Testbed streamed_tb = test::quick_testbed(sim::SimFidelity::kStreamed);
  Tiers t;
  t.per_packet = run_pipeline_configs(test::quick_testbed(sim::SimFidelity::kExact), 1);
  t.batched = run_pipeline_configs(test::quick_testbed(sim::SimFidelity::kExact), kBatch);
  t.sampled = run_pipeline_configs(test::quick_testbed(sim::SimFidelity::kSampled), kBatch);
  t.streamed = run_pipeline_configs(streamed_tb, kBatch);
  ASSERT_EQ(t.batched.size(), 4U);

  std::FILE* f = std::fopen(kPath, "w");
  ASSERT_NE(f, nullptr) << "cannot write " << kPath;
  write_json(f, t, streamed_tb.machine_config().sample_period_max);
  std::fclose(f);
  std::ifstream in(kPath);
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  EXPECT_TRUE(Json::parse(text.str(), &error).has_value()) << kPath << ": " << error;

  for (const auto& [tier, runs] : {std::pair{"sampled", &t.sampled},
                                   std::pair{"streamed", &t.streamed}}) {
    for (std::size_t i = 0; i < runs->size(); ++i) {
      const double drift = pct((*runs)[i].pps, t.batched[i].pps);
      std::printf("%-13s %-8s pps drift %+.3f%%\n", t.batched[i].name, tier, drift);
      EXPECT_LE(std::fabs(drift), kPpsTolerancePct)
          << t.batched[i].name << " " << tier << " pps drift " << drift
          << "% exceeds the documented tolerance (docs/simulation_modes.md)";
    }
  }
}

}  // namespace
}  // namespace pp::api

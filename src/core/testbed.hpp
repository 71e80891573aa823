// The experiment runner: builds a simulated machine, places flows on cores
// and their data in NUMA domains, runs a warmup window (cache warm, pools
// primed), then measures a fixed window and reports per-flow and per-element
// counter deltas — the simulated equivalent of the paper's OProfile
// methodology (Section 2).
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "base/env.hpp"
#include "click/router.hpp"
#include "core/workloads.hpp"
#include "sim/machine.hpp"

namespace pp::core {

/// Simulation fidelity requested via the SIM_FIDELITY environment variable
/// ("sampled" selects sim::SimFidelity::kSampled, "streamed" the
/// payload-streaming tier sim::SimFidelity::kStreamed; anything else,
/// including unset, is the exact default). The Testbed applies this to its
/// machine config so every bench/driver honors it without plumbing.
[[nodiscard]] sim::SimFidelity fidelity_from_env();

/// Adaptive sampling-period ceiling (MachineConfig::sample_period_max) from
/// the SIM_SAMPLE_PERIOD_MAX environment variable. Defaults: the base
/// period (widening off) for exact/sampled fidelity, 16 for the streamed
/// tier. Invalid values are ignored.
[[nodiscard]] std::uint32_t sample_period_max_from_env(sim::SimFidelity fidelity,
                                                       std::uint32_t sample_period);

/// Where a flow runs and where its data lives. data_domain = -1 means
/// NUMA-local (the paper's normal rule, Section 2.2); the Figure 3
/// configurations override it to expose individual resources.
struct FlowPlacement {
  int core = 0;
  int data_domain = -1;

  [[nodiscard]] bool operator==(const FlowPlacement&) const = default;
};

struct RunConfig {
  std::vector<FlowSpec> flows;
  std::vector<FlowPlacement> placement;  // parallel to flows
  double warmup_ms = 2.0;
  double measure_ms = 8.0;
  std::uint64_t seed = 1;

  /// Per-run budget in simulated ms (0 = unlimited); see Scenario::budget_ms.
  double budget_ms = 0;

  /// Wall-clock deadline (unset = none); see Scenario::deadline. The ppd
  /// request lifecycle stamps this so a long plan stops between scenarios
  /// instead of wedging a drain or hanging a client.
  std::chrono::steady_clock::time_point deadline{};

  /// Convenience: one flow per core 0..n-1, all NUMA-local.
  [[nodiscard]] static RunConfig simple(std::vector<FlowSpec> flows, std::uint64_t seed = 1);
};

struct ElementStat {
  std::string name;
  std::string cls;
  sim::Counters delta;
};

struct FlowMetrics {
  FlowType type = FlowType::kIp;
  int core = 0;
  double seconds = 0;  // measured wall time on that core (simulated)
  sim::Counters delta;
  std::vector<ElementStat> elements;  // includes the buffer pool ("skb_recycle")

  /// All ratio helpers define x/0 as 0 so degenerate windows (a spec with
  /// measure_ms = 0, a flow that never got scheduled) report clean zeros
  /// instead of NaN/Inf leaking into JSON output and downstream arithmetic.
  [[nodiscard]] static double ratio(double num, double den) {
    return den > 0 ? num / den : 0.0;
  }
  [[nodiscard]] double pps() const { return ratio(static_cast<double>(delta.packets), seconds); }
  [[nodiscard]] double refs_per_sec() const {
    return ratio(static_cast<double>(delta.l3_refs), seconds);
  }
  [[nodiscard]] double hits_per_sec() const {
    return ratio(static_cast<double>(delta.l3_hits()), seconds);
  }
  [[nodiscard]] double misses_per_sec() const {
    return ratio(static_cast<double>(delta.l3_misses), seconds);
  }
  [[nodiscard]] double cpi() const {
    return ratio(static_cast<double>(delta.cycles), static_cast<double>(delta.instructions));
  }
  [[nodiscard]] double per_packet(std::uint64_t v) const {
    return ratio(static_cast<double>(v), static_cast<double>(delta.packets));
  }
  [[nodiscard]] double cycles_per_packet() const { return per_packet(delta.cycles); }
  [[nodiscard]] double refs_per_packet() const { return per_packet(delta.l3_refs); }
  [[nodiscard]] double misses_per_packet() const { return per_packet(delta.l3_misses); }
  [[nodiscard]] double l2_hits_per_packet() const { return per_packet(delta.l2_hits); }
};

/// A live flow on a running machine: what the aggressiveness governor reads
/// counters from and whose ControlShim it adjusts mid-run.
struct FlowHandle {
  int index = 0;
  int core = 0;
  FlowType type = FlowType::kIp;
  click::Router* router = nullptr;
};

class Testbed {
 public:
  explicit Testbed(Scale scale = scale_from_env(), std::uint64_t seed = 1);

  [[nodiscard]] const WorkloadSizes& sizes() const { return sizes_; }
  [[nodiscard]] WorkloadSizes& sizes() { return sizes_; }
  [[nodiscard]] const sim::MachineConfig& machine_config() const { return mcfg_; }
  [[nodiscard]] sim::MachineConfig& machine_config() { return mcfg_; }
  [[nodiscard]] Scale scale() const { return scale_; }

  /// Measurement windows appropriate for the scale.
  [[nodiscard]] double default_warmup_ms() const;
  [[nodiscard]] double default_measure_ms() const;
  [[nodiscard]] RunConfig configure(std::vector<FlowSpec> flows, std::uint64_t seed = 1) const;

  /// Per-run budget stamped onto every configure()d RunConfig (0 =
  /// unlimited). Initialized from the audited environment snapshot
  /// (PP_RUN_BUDGET); ViewStack makes the session's explicit options
  /// authoritative, mirroring the fidelity knobs.
  [[nodiscard]] double run_budget_ms() const { return run_budget_ms_; }
  void set_run_budget_ms(double ms) { run_budget_ms_ = ms > 0 ? ms : 0; }

  /// Wall-clock deadline stamped onto every configure()d RunConfig (the
  /// default-constructed time_point = none). Per-request: the ppd daemon
  /// sets it at request admission via SessionOptions::wall_deadline.
  [[nodiscard]] std::chrono::steady_clock::time_point run_deadline() const {
    return run_deadline_;
  }
  void set_run_deadline(std::chrono::steady_clock::time_point at) { run_deadline_ = at; }

  /// Run an experiment; metrics are returned in flow order. Const — and
  /// therefore safe to call concurrently from several host threads, each
  /// run building its own Machine (see core/parallel.hpp).
  [[nodiscard]] std::vector<FlowMetrics> run(const RunConfig& cfg) const;

  /// One flow alone on core 0 (the paper's "solo run").
  [[nodiscard]] FlowMetrics run_solo(const FlowSpec& spec) const;

 private:
  Scale scale_;
  std::uint64_t seed_;
  WorkloadSizes sizes_;
  sim::MachineConfig mcfg_;
  double run_budget_ms_ = 0;
  std::chrono::steady_clock::time_point run_deadline_{};
};

}  // namespace pp::core

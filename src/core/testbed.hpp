// The experiment description: a Testbed holds the simulated machine and
// workload sizes, and configure() lays out a RunConfig — flows on cores,
// their data in NUMA domains, a warmup window (cache warm, pools primed) and
// a measured window. Scenario::of captures the pair and run_scenario
// (core/scenario.hpp) reports per-flow and per-element counter deltas — the
// simulated equivalent of the paper's OProfile methodology (Section 2).
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

/// Reads nothing from the environment: the machine config starts at its
/// exact-tier defaults and the run budget at 0. api::ViewStack applies a
/// session's SessionOptions (fidelity, period ceiling, budget, deadline).
class Testbed {
 public:
  explicit Testbed(Scale scale, std::uint64_t seed = 1);

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
  /// unlimited, the default; ViewStack sets SessionOptions::run_budget_ms).
  [[nodiscard]] double run_budget_ms() const { return run_budget_ms_; }
  void set_run_budget_ms(double ms) { run_budget_ms_ = ms > 0 ? ms : 0; }

  /// Wall-clock deadline stamped onto every configure()d RunConfig (the
  /// default-constructed time_point = none). Per-request: the ppd daemon
  /// sets it at request admission via SessionOptions::wall_deadline.
  [[nodiscard]] std::chrono::steady_clock::time_point run_deadline() const {
    return run_deadline_;
  }
  void set_run_deadline(std::chrono::steady_clock::time_point at) { run_deadline_ = at; }

 private:
  Scale scale_;
  std::uint64_t seed_;
  WorkloadSizes sizes_;
  sim::MachineConfig mcfg_;
  double run_budget_ms_ = 0;
  std::chrono::steady_clock::time_point run_deadline_{};
};

}  // namespace pp::core

// SYN sweep profiling (the paper's prediction step 2, Section 4; Figures 4,
// 5 and 7): co-run a target flow with 5 SYN flows whose aggressiveness ramps
// from idle to SYN_MAX, and record the target's performance drop as a
// function of the competitors' measured cache refs/sec.
//
// The three Figure 3 placements are supported: cache-only contention
// (competitors on the target's socket, their data remote), memory-
// controller-only (competitors on the other socket, their data in the
// target's domain), and both (the system's normal NUMA-local placement).
//
// The profiler is a stateless view over the ProfileStore: a sweep is planned
// as one scenario per (target, level, seed) — plus the target's solo
// scenarios — and the whole plan fans out over the host thread pool in a
// single store request. Aggregation walks the slots in serial order, so the
// output is bit-identical at any thread count, and concurrent sweeps
// sharing one SoloProfiler/store are safe (the store single-flights
// duplicate scenarios instead of racing a hidden cache).
#pragma once

#include <vector>

#include "core/profiler.hpp"
#include "core/testbed.hpp"

namespace pp::core {

enum class ContentionMode : std::uint8_t { kCacheOnly, kMemCtrlOnly, kBoth };

[[nodiscard]] const char* to_string(ContentionMode m);

/// Monotone drop-vs-competing-refs curve with linear interpolation; this is
/// the per-type profile predict_drop reads (prediction step 3).
class SweepCurve {
 public:
  struct Point {
    double competing_refs_per_sec = 0;
    double drop_pct = 0;
  };

  void add(double refs, double drop);
  void finalize();  // sort by x

  /// Interpolated drop at `refs` (clamped to the measured range).
  [[nodiscard]] double drop_at(double refs) const;

  [[nodiscard]] const std::vector<Point>& points() const { return pts_; }

 private:
  std::vector<Point> pts_;
  bool finalized_ = false;
};

/// One sweep level: the SYN setting, the measured competition, and the
/// target's pooled metrics (with per-element stats for Figure 7).
struct SweepLevel {
  SynParams syn;
  double competing_refs_per_sec = 0;
  double drop_pct = 0;
  FlowMetrics target;
};

struct SweepResult {
  FlowType target = FlowType::kIp;
  ContentionMode mode = ContentionMode::kBoth;
  FlowMetrics solo;  // the target's seed-averaged solo baseline
  std::vector<SweepLevel> levels;
  SweepCurve curve;
};

/// Prediction step 3 (Section 4): `target`'s predicted drop (percent) when
/// it co-runs with flows whose solo profiles are `competitor_solos` — its
/// curve read at the sum of their solo refs/sec. The paper's "perfect
/// knowledge" variant (Figure 8b) reads the curve at the competitors'
/// measured refs/sec instead.
[[nodiscard]] double predict_drop(const SweepResult& target,
                                  const std::vector<FlowMetrics>& competitor_solos);

class SweepProfiler {
 public:
  /// `competitors` SYN flows (1..5) co-run with the target; every sweep
  /// fans out over up to `solo.threads()` host threads.
  SweepProfiler(SoloProfiler& solo, int competitors);

  /// Ramp schedule: SYN (reads, instr) pairs from near-idle to SYN_MAX.
  /// Batches are kept short (small reads, modest instr) so competitor tasks
  /// stay comparable in length to a packet and the DES interleaving stays
  /// fine-grained.
  [[nodiscard]] static std::vector<SynParams> default_levels(Scale s);

  /// The scenario for one (target, level, seed) sweep point: the testbed's
  /// configure()d run (windows, budget, deadline) with the competitors
  /// placed per `mode`.
  [[nodiscard]] Scenario level_scenario(const FlowSpec& target, ContentionMode mode,
                                        const SynParams& level, int seed_index) const;

  /// Sweep the ramp for one target. Every (level, seed) run is an
  /// independent machine executing on up to `solo().threads()` host threads.
  [[nodiscard]] SweepResult sweep(const FlowSpec& target, ContentionMode mode,
                                  const std::vector<SynParams>& levels) const;

  /// Sweep several targets at once: all targets' (level, seed) runs — and
  /// their solo baselines — fan out over one host thread pool (this is how
  /// the fig4/fig5 artifacts run the per-type sweeps of one figure
  /// concurrently).
  /// Results are in target order, bit-identical to calling sweep() serially.
  [[nodiscard]] std::vector<SweepResult> sweep_many(
      const std::vector<FlowSpec>& targets, ContentionMode mode,
      const std::vector<SynParams>& levels) const;

  [[nodiscard]] SoloProfiler& solo() const { return solo_; }

 private:
  SoloProfiler& solo_;
  int competitors_;
};

}  // namespace pp::core

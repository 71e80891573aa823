// The simulated memory hierarchy: private L1d/L2 per core, shared inclusive
// L3 per socket, per-socket memory controllers, QPI between sockets.
//
// This is where every contention effect the paper studies is produced
// structurally:
//  - shared-L3 contention: co-runners' insertions evict the target's lines
//    (back-invalidating private copies, since the L3 is inclusive), turning
//    solo-run hits into misses (Section 3);
//  - memory-controller contention: FCFS channel queueing (Figure 4b);
//  - interconnect contention: QPI link queueing for remote-domain data
//    (ruled out in the paper's normal configuration by NUMA-local
//    allocation, Section 2.2, but exercised by the Figure 3 placements).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "model/cache_model.hpp"
#include "model/stream_model.hpp"
#include "sim/address_space.hpp"
#include "sim/cache.hpp"
#include "sim/counters.hpp"
#include "sim/queued_link.hpp"
#include "sim/types.hpp"

namespace pp::sim {

class MemorySystem {
 public:
  explicit MemorySystem(const MachineConfig& cfg);

  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  struct Outcome {
    Cycles latency = 0;  // stall cycles beyond the 1-cycle issue slot
    AccessDelta delta;
  };

  /// One data access by `core` at local time `now`. Mutates cache state and
  /// link queues; returns the charged latency and counter deltas. Under
  /// SimFidelity::kSampled, accesses to lines outside the sampled/pinned
  /// sets are served by the calibrated statistical model instead of the tag
  /// stores (memory-controller/QPI queueing stays structural either way).
  [[nodiscard]] Outcome access(int core, Addr addr, AccessType type, Cycles now);

  /// One payload-streaming burst (SimFidelity::kStreamed only; callers check
  /// payload_model_active first): total charged cycles — per-line issue slots
  /// plus MLP-overlapped stalls, mirroring Core::access_many with
  /// dependent=false — and the summed counter deltas.
  struct StreamOutcome {
    Cycles cycles = 0;
    AccessDeltaSum delta;
  };

  /// Serve a burst of independent streaming line touches. Pinned lines and
  /// the tracked residue class replay exactly (the tracked outcomes
  /// calibrate both the per-access estimator and the stream model); every
  /// other line is grouped per allocation and served by one
  /// model::StreamModel level-split draw per group, with modeled misses
  /// still queueing on the real controller/QPI links and still exerting
  /// pinned-set eviction pressure.
  [[nodiscard]] StreamOutcome stream_burst(int core, const Addr* addrs, std::size_t n,
                                           AccessType type, Cycles now);

  /// True when payload-streaming bursts should route through stream_burst
  /// (i.e. fidelity is kStreamed).
  [[nodiscard]] bool payload_model_active() const { return stream_ != nullptr; }

  /// Sampled-mode wiring: consult `as` for the pinned hot-line ranges
  /// (descriptor rings, buffer pools, queue index lines) that keep full
  /// replay. The Machine binds its own address space at construction;
  /// standalone MemorySystems (unit tests) may leave this unset.
  void bind_pins(const AddressSpace* as) { pins_ = as; }

  /// True when `line` receives full tag-store replay under the current
  /// fidelity (always true in kExact mode).
  [[nodiscard]] bool line_is_exact(Addr line) const {
    if (!sampling_) return true;
    if (((tracked_residues_ >> (line & sample_mask_)) & 1ULL) != 0) return true;
    return pins_ != nullptr && pins_->is_pinned_line(line);
  }

  /// The sampled-mode estimator (nullptr in kExact mode; test/diagnostic).
  [[nodiscard]] const model::SetSampleEstimator* estimator() const { return est_.get(); }

  /// Estimator cell of a line: per allocation when an AddressSpace is
  /// bound (each application structure calibrates its own cell), address
  /// granularity otherwise.
  [[nodiscard]] std::uint32_t bucket_of(Addr line) const {
    return pins_ != nullptr
               ? pins_->structure_of_line(line, model::SetSampleEstimator::kBuckets)
               : model::SetSampleEstimator::bucket_of(line);
  }

  /// Fast path for the dominant repeat pattern (descriptor load/store pairs,
  /// free-list head touches, streaming over a just-installed line): when the
  /// accessed line occupies `core`'s L1 MRU slot the access is a guaranteed
  /// L1 hit with zero extra latency, and the LRU/dirty update happens without
  /// the way scan or the Outcome/AccessDelta round-trip of `access`. Returns
  /// false (without side effects) when the slow path must run. Exactly
  /// equivalent to `access` hitting in L1.
  [[nodiscard]] bool try_l1_mru(int core, Addr addr, AccessType type) {
    Cache& l1c = *l1_[static_cast<std::size_t>(core)];
    if (!l1c.mru_is(line_of(addr))) return false;
    l1c.mru_touch(type == AccessType::kWrite);
    return true;
  }

  /// NIC DMA write of a packet buffer. The paper's platform (82599 +
  /// Westmere) uses Direct Cache Access: the DMA'd lines are placed in the
  /// home socket's L3 (displacing whatever lived there — DMA traffic is
  /// itself cache pressure), stale private copies are invalidated, and the
  /// write consumes controller bandwidth in the buffer's home domain.
  void dma_write(Addr addr, std::size_t bytes, Cycles now);

  /// NIC DMA read at transmit: consumes controller bandwidth; any dirty
  /// cached copy is flushed (written back) but stays cached clean.
  void dma_read(Addr addr, std::size_t bytes, Cycles now);

  [[nodiscard]] Cache& l1(int core) { return *l1_[static_cast<std::size_t>(core)]; }
  [[nodiscard]] Cache& l2(int core) { return *l2_[static_cast<std::size_t>(core)]; }
  [[nodiscard]] Cache& l3(int socket) { return *l3_[static_cast<std::size_t>(socket)]; }
  [[nodiscard]] QueuedLink& controller(int domain) {
    return *mc_[static_cast<std::size_t>(domain)];
  }
  /// The QPI path from `from_socket` toward `to_socket` (per-direction).
  [[nodiscard]] QueuedLink& qpi(int from_socket, int to_socket);

  [[nodiscard]] int socket_of(int core) const {
    return core / cfg_.cores_per_socket;
  }
  [[nodiscard]] int core_index_in_socket(int core) const {
    return core % cfg_.cores_per_socket;
  }

  /// Drop controller/QPI backlogs (after prewarm passes; see
  /// QueuedLink::clear_backlog).
  void clear_link_backlogs();

  /// Drop the sampled-mode calibration back to its prior (no-op in kExact
  /// mode). Called alongside clear_link_backlogs for the same reason: the
  /// serial prewarm pass is an artificial phase — a pure compulsory-miss
  /// stream — that must not anchor the steady-state estimate. The adaptive
  /// period confidence and the stream model reset with it.
  void reset_sample_calibration() {
    if (est_ == nullptr) return;
    est_->reset_counts();
    if (stream_ != nullptr) stream_->reset_counts();
    for (std::uint32_t& d : pending_binv_) d = 0;
  }

  [[nodiscard]] const MachineConfig& config() const { return cfg_; }

  /// Value copy of everything this memory system simulates: the tag stores,
  /// the controller/QPI queues, the statistical models with their RNG
  /// streams, the structural-pressure RNG streams and the back-invalidation
  /// debt. The address-space binding and the host memo caches (line
  /// classification, pinned-set map) are not part of it.
  struct State {
    std::vector<Cache> l1, l2, l3;
    std::vector<QueuedLink> mc, qpi;
    std::optional<model::SetSampleEstimator> est;
    std::optional<model::StreamModel> stream;
    std::vector<std::uint32_t> pending_binv;
    std::vector<Pcg32> model_rng;
  };

  [[nodiscard]] State save_state() const;

  /// Overwrite the simulated state with `s`, taken from a memory system of
  /// the same MachineConfig. Keeps this system's address-space binding and
  /// resets its memo caches, so they rebuild against its own address space.
  void restore_state(const State& s);

 private:
  /// The full tag-store state machine (the only path in kExact mode).
  /// `calibrate` feeds this access's outcome to the sampled-mode estimator
  /// (true only for residue-class, non-pinned lines in kSampled mode).
  [[nodiscard]] Outcome access_exact(int core, Addr addr, AccessType type, Cycles now,
                                     bool calibrate);

  /// Statistical service of an un-replayed line: the L1 still replays
  /// exactly (hot-line recency is structural), the L2/L3/memory split of an
  /// L1 miss is drawn from the estimator, and misses are still routed
  /// through the real controller/QPI queues.
  [[nodiscard]] Outcome model_access(int core, Addr line, AccessType type, Cycles now,
                                     std::uint32_t bucket);

  /// Install a line into `core`'s private L2+L1, maintaining inclusion
  /// bookkeeping (dirty propagation on eviction, L3 core-mask updates).
  void install_private(int core, Addr line, bool dirty);

  /// Remove a victim evicted from the L3 from all private caches that hold
  /// it (inclusive back-invalidation); returns true if any copy was dirty.
  bool back_invalidate(int socket, Addr line, std::uint16_t core_mask);

  void writeback(Addr line, Cycles now);

  MachineConfig cfg_;
  std::vector<std::unique_ptr<Cache>> l1_;
  std::vector<std::unique_ptr<Cache>> l2_;
  std::vector<std::unique_ptr<Cache>> l3_;
  std::vector<std::unique_ptr<QueuedLink>> mc_;
  std::vector<std::unique_ptr<QueuedLink>> qpi_;  // sockets*sockets, from-major

  /// Memoized per-core line classification shared by access() and
  /// stream_burst(): consecutive accesses almost always stay within one
  /// structure, so the alloc/pin binary searches are paid only on structure
  /// changes.
  [[nodiscard]] AddressSpace::LineClass& classify(int core, Addr line);

  /// True when `line`'s allocation is large enough for adaptive widening
  /// (ROADMAP's "very large tables"): small structures — rule arrays, AES
  /// tables, modest tries — keep the base period, where their thin residue
  /// sample is already the accuracy floor. Unit-test memory systems without
  /// a bound AddressSpace have no allocation metadata and stay eligible.
  [[nodiscard]] static bool widen_eligible(const AddressSpace::LineClass& m) {
    return m.alloc_lines >= kMinWidenLines;
  }

  /// True when `line` keeps full tag-store replay right now: base residue
  /// class membership, narrowed by the adaptive period of its allocation
  /// when widening is enabled and the allocation is size-eligible. Excludes
  /// the pin exemption (callers test pinned-ness separately from the
  /// memoized classification).
  [[nodiscard]] bool tracked_line(Addr line, std::uint32_t bucket, bool eligible) const {
    if (((tracked_residues_ >> (line & sample_mask_)) & 1ULL) == 0) return false;
    if (!adaptive_ || !eligible) return true;
    const std::uint32_t shift = est_->period_shift(bucket);
    if (shift == 0) return true;
    const Addr eff_mask = ((static_cast<Addr>(sample_mask_) + 1) << shift) - 1;
    return (line & eff_mask) == tracked_residue_;
  }

  /// Adaptive-widening size gate: 4 MB of lines.
  static constexpr Addr kMinWidenLines = (4ULL << 20) >> kLineShift;

  /// The implied fill of a modeled miss evicts its L3 set's LRU line with
  /// probability occupancy/ways (pinned-set pressure; see model_access).
  void modeled_miss_pressure(int core, Addr line, Cycles now);

  /// Adaptive-widening variant for modeled misses whose set is still
  /// replayed for narrower-period allocations: a real find-touch/insert so
  /// tracked lines feel true capacity competition (see the implementation
  /// comment for why the LRU-pressure draw is wrong there).
  void modeled_live_set_fill(int core, Addr line, bool is_write, Cycles now);

  // --- SimFidelity::kSampled state (inert in kExact mode) -----------------
  bool sampling_ = false;
  bool adaptive_ = false;                  // sample_period_max > sample_period
  std::uint32_t sample_mask_ = 0;          // sample_period - 1
  Addr tracked_residue_ = 0;               // sample_seed % sample_period
  std::uint64_t tracked_residues_ = ~0ULL; // bitmap over line residues
  const AddressSpace* pins_ = nullptr;
  std::unique_ptr<model::SetSampleEstimator> est_;
  // --- SimFidelity::kStreamed state (kSampled state plus this) ------------
  std::unique_ptr<model::StreamModel> stream_;
  /// Scratch for stream_burst's per-allocation grouping (modeled lines of
  /// the group currently being accumulated).
  std::vector<Addr> stream_group_;
  /// True while stream_burst replays a calibration line through the access
  /// path, so the eviction writeback observation reaches the stream model.
  bool stream_calib_ = false;
  /// Per-core back-invalidation debt: each stripped L1 copy of a
  /// calibration-class line adds period-1 demotions owed by that core's
  /// modeled L1 hits (capped — debt beyond a window's worth of hits would
  /// just model lines already naturally evicted).
  static constexpr std::uint32_t kMaxBinvDebt = 1U << 14;
  std::vector<std::uint32_t> pending_binv_;
  /// Per-core streams for the structural pressure draws (pinned-set
  /// eviction on modeled misses); independent of the estimator's streams.
  std::vector<Pcg32> model_rng_;

  /// A pressure victim must have been idle this many L3 operations — a
  /// fresher line would not be the LRU of its set among the un-replayed
  /// occupants (freshly DCA'd packet buffers especially).
  static constexpr std::uint64_t kPinEvictIdleOps = 64;

  /// Bitmap over L3 set indices that at least one pinned line maps to,
  /// rebuilt lazily when pin registrations change. True => the modeled
  /// miss pressure path must run for this line's set.
  [[nodiscard]] bool pin_set_map_hit(Addr line) {
    if (pins_ == nullptr) return false;
    if (pin_map_version_ != pins_->pin_version()) rebuild_pin_set_map();
    const std::size_t set = static_cast<std::size_t>(line) & (l3_sets_ - 1);
    return (pin_set_map_[set >> 6] >> (set & 63)) & 1ULL;
  }
  void rebuild_pin_set_map();

  std::size_t l3_sets_ = 0;
  std::uint64_t pin_map_version_ = ~std::uint64_t{0};
  std::vector<std::uint64_t> pin_set_map_;

  /// Per-core memoized line classification (see access()); invalidated
  /// when the address space gains allocations or pins.
  std::vector<AddressSpace::LineClass> class_memo_;
  std::uint64_t memo_version_ = ~std::uint64_t{0};
};

}  // namespace pp::sim

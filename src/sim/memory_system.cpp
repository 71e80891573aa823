#include "sim/memory_system.hpp"

namespace pp::sim {

MemorySystem::MemorySystem(const MachineConfig& cfg) : cfg_(cfg) {
  const int cores = cfg_.num_cores();
  l1_.reserve(static_cast<std::size_t>(cores));
  l2_.reserve(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) {
    l1_.push_back(std::make_unique<Cache>(cfg_.l1));
    l2_.push_back(std::make_unique<Cache>(cfg_.l2));
  }
  for (int s = 0; s < cfg_.sockets; ++s) {
    l3_.push_back(std::make_unique<Cache>(cfg_.l3));
    mc_.push_back(std::make_unique<QueuedLink>(cfg_.mc_channels, cfg_.mc_service));
  }
  for (int i = 0; i < cfg_.sockets * cfg_.sockets; ++i) {
    qpi_.push_back(std::make_unique<QueuedLink>(cfg_.qpi_lanes, cfg_.qpi_service));
  }

  if (cfg_.fidelity != SimFidelity::kExact) {
    const std::uint32_t p = cfg_.sample_period;
    PP_CHECK(p >= 2 && p <= 64 && (p & (p - 1)) == 0);
    // The residue bits must be set-index bits at every level so that a set
    // is wholly replayed or wholly modeled.
    PP_CHECK(p <= cfg_.l1.num_sets() && p <= cfg_.l2.num_sets() && p <= cfg_.l3.num_sets());
    sampling_ = true;
    l3_sets_ = cfg_.l3.num_sets();
    sample_mask_ = p - 1;
    tracked_residue_ = cfg_.sample_seed % p;
    tracked_residues_ = 1ULL << tracked_residue_;
    est_ = std::make_unique<model::SetSampleEstimator>(cores, cfg_.sample_seed);
    const std::uint32_t pmax = cfg_.sample_period_max;
    if (pmax > p) {
      // Adaptive widening: the ceiling must be a valid period itself, and
      // its residue bits must still be set-index bits at every level.
      PP_CHECK(pmax <= 64 && (pmax & (pmax - 1)) == 0);
      PP_CHECK(pmax <= cfg_.l1.num_sets() && pmax <= cfg_.l2.num_sets() &&
               pmax <= cfg_.l3.num_sets());
      adaptive_ = true;
      std::uint32_t shift = 0;
      while ((p << shift) < pmax) ++shift;
      est_->enable_adaptive(shift);
    }
    if (cfg_.fidelity == SimFidelity::kStreamed) {
      stream_ = std::make_unique<model::StreamModel>(cores, cfg_.sample_seed);
    }
    pending_binv_.assign(static_cast<std::size_t>(cores), 0);
    class_memo_.assign(static_cast<std::size_t>(cores), AddressSpace::LineClass{});
    std::uint64_t s = cfg_.sample_seed ^ 0x9e3779b97f4a7c15ULL;
    model_rng_.reserve(static_cast<std::size_t>(cores));
    for (int c = 0; c < cores; ++c) {
      const std::uint64_t a = splitmix64(s);
      const std::uint64_t b = splitmix64(s);
      model_rng_.emplace_back(a, b);
    }
  }
}

void MemorySystem::rebuild_pin_set_map() {
  pin_map_version_ = pins_->pin_version();
  pin_set_map_.assign((l3_sets_ + 63) / 64, 0);
  pins_->each_pinned([this](Addr first, Addr last) {
    // A range spanning >= l3_sets_ lines covers every set.
    const Addr span = last - first + 1;
    const Addr n = span < static_cast<Addr>(l3_sets_) ? span : static_cast<Addr>(l3_sets_);
    for (Addr l = first; l < first + n; ++l) {
      const std::size_t set = static_cast<std::size_t>(l) & (l3_sets_ - 1);
      pin_set_map_[set >> 6] |= 1ULL << (set & 63);
    }
  });
}

QueuedLink& MemorySystem::qpi(int from_socket, int to_socket) {
  return *qpi_[static_cast<std::size_t>(from_socket) * static_cast<std::size_t>(cfg_.sockets) +
               static_cast<std::size_t>(to_socket)];
}

AddressSpace::LineClass& MemorySystem::classify(int core, Addr line) {
  const std::uint64_t ver =
      pins_->pin_version() + (static_cast<std::uint64_t>(pins_->alloc_count()) << 32);
  if (ver != memo_version_) {
    memo_version_ = ver;
    for (AddressSpace::LineClass& m : class_memo_) m = AddressSpace::LineClass{};
  }
  AddressSpace::LineClass& m = class_memo_[static_cast<std::size_t>(core)];
  if (line < m.first || line > m.last) {
    m = pins_->classify_line(line, model::SetSampleEstimator::kBuckets);
  }
  return m;
}

MemorySystem::Outcome MemorySystem::access(int core, Addr addr, AccessType type, Cycles now) {
  if (!sampling_) return access_exact(core, addr, type, now, /*calibrate=*/false);

  const Addr line = line_of(addr);

  bool pinned = false;
  bool eligible = true;
  std::uint32_t bucket = 0;
  if (pins_ != nullptr) {
    const AddressSpace::LineClass& m = classify(core, line);
    pinned = m.pinned;
    eligible = widen_eligible(m);
    bucket = m.bucket;
  } else {
    bucket = model::SetSampleEstimator::bucket_of(line);
  }
  const bool tracked = tracked_line(line, bucket, eligible);

  if (!tracked && !pinned) return model_access(core, line, type, now, bucket);

  // Calibration sample = the residue class MINUS the pinned ranges: exactly
  // a 1/period unbiased sample of the population the model serves. Pinned
  // lines are replayed at full weight and have their own (descriptor/pool,
  // L1-heavy) access mix — letting them into the estimator would swamp the
  // sampled structures sharing their buckets.
  if (!tracked) return access_exact(core, addr, type, now, /*calibrate=*/false);
  const bool calibrate = !pinned;
  const Outcome out = access_exact(core, addr, type, now, calibrate);
  // Only L1-missing outcomes calibrate: the model replays the L1 exactly
  // and draws solely the L2/L3/memory split.
  if (calibrate && out.delta.l1_hit == 0) {
    const AccessDelta& d = out.delta;
    const int level = d.l2_hit != 0    ? model::SetSampleEstimator::kL2Hit
                      : d.l3_miss != 0 ? model::SetSampleEstimator::kMiss
                                       : model::SetSampleEstimator::kL3Hit;
    est_->observe(core, bucket, level, d.xcore_hit != 0, eligible);
  }
  return out;
}

MemorySystem::Outcome MemorySystem::model_access(int core, Addr line, AccessType type,
                                                 Cycles now, std::uint32_t bucket) {
  Outcome out;
  const bool is_write = type == AccessType::kWrite;

  // The L1 replays exactly for every line, modeled or not: it is the tiny,
  // cheap tag store, and it is where per-line recency lives — the hottest
  // few lines of a structure (top-of-trie, table heads) are precisely what
  // a 1/period line sample estimates worst, so they are kept structural.
  // Only the L2/L3/memory classification of L1 misses is statistical.
  // Pending back-invalidation debt (see back_invalidate) demotes L1 hits
  // that an inclusive eviction would have stripped under contention.
  Cache& l1c = l1(core);
  bool l1_hit = false;
  bool demoted = false;
  Cache::Eviction l1_ev = l1c.probe_insert(line, is_write, &l1_hit);
  if (l1_hit) {
    std::uint32_t& debt = pending_binv_[static_cast<std::size_t>(core)];
    if (debt == 0) {
      out.delta.l1_hit = 1;
      return out;
    }
    --debt;
    demoted = true;
    // As the back-invalidation would have: the copy disappears, and a
    // dirty copy is written back on the way out.
    if (l1c.invalidate(line)) writeback(line, now);
  }
  out.delta.l1_miss = 1;

  const model::SetSampleEstimator::Sampled s = est_->sample(core, bucket);
  switch (s.level) {
    case model::SetSampleEstimator::kL2Hit:
      out.delta.l2_hit = 1;
      out.latency = cfg_.l2_latency;
      break;
    case model::SetSampleEstimator::kL3Hit:
      out.delta.l2_miss = 1;
      out.delta.l3_ref = 1;
      out.latency = cfg_.l3_latency;
      if (s.xcore) {
        out.latency += cfg_.snoop_extra;
        out.delta.xcore_hit = 1;
      }
      break;
    default: {
      // Modeled miss: the hit/miss classification is statistical, but
      // bandwidth is not — the request still queues on the real controller
      // (and QPI for a remote domain), so Figure 4(b)-style contention
      // emerges structurally in sampled mode too.
      out.delta.l2_miss = 1;
      out.delta.l3_ref = 1;
      out.delta.l3_miss = 1;
      const int socket = socket_of(core);
      const int domain = domain_of(line << kLineShift);
      Cycles lat = cfg_.l3_latency + cfg_.dram_extra;
      if (domain != socket) {
        out.delta.remote_ref = 1;
        const Cycles qd = qpi(socket, domain).request(line, now);
        out.delta.qpi_queue = static_cast<std::uint32_t>(qd);
        lat += cfg_.qpi_latency + qd;
      }
      const Cycles md = controller(domain).request(line, now);
      out.delta.mc_queue = static_cast<std::uint32_t>(md);
      lat += md;
      out.latency = lat;
      if (s.writeback) writeback(line, now);
      if (adaptive_ && (line & sample_mask_) == tracked_residue_) {
        modeled_live_set_fill(core, line, is_write, now);
      } else {
        modeled_miss_pressure(core, line, now);
      }
      break;
    }
  }

  // The line now lives in this core's L1 (probe_insert filled it on the
  // miss path; a demoted hit refills here, as the post-back-invalidation
  // refetch would). A modeled line can only displace lines of its own
  // residue class — pinned lines keep their exact L2 dirty propagation; a
  // modeled victim's writeback is already folded into the calibrated
  // writeback rate.
  if (demoted) l1_ev = l1c.insert(line, is_write, 0);
  if (l1_ev.valid && l1_ev.dirty) {
    Cache& l2c = l2(core);
    if (const int w2 = l2c.find(l1_ev.tag); w2 >= 0) l2c.mark_dirty(l1_ev.tag, w2);
  }
  return out;
}

MemorySystem::StreamOutcome MemorySystem::stream_burst(int core, const Addr* addrs,
                                                       std::size_t n, AccessType type,
                                                       Cycles now) {
  PP_CHECK(stream_ != nullptr);
  StreamOutcome out;
  const Cycles mlp = static_cast<Cycles>(cfg_.mlp);
  // Independent-access latency overlap, mirroring Core's dependent=false
  // handling: a nonzero stall divides by the MLP, floored at one cycle.
  const auto ovl = [mlp](Cycles lat) -> Cycles {
    if (lat == 0) return 0;
    const Cycles l = lat / mlp;
    return l == 0 ? 1 : l;
  };

  std::uint32_t group_bucket = 0;
  const auto flush_group = [&] {
    const std::uint64_t k = stream_group_.size();
    if (k == 0) return;
    const model::StreamModel::Split s = stream_->split(core, group_bucket, k);
    out.delta.l1_hit += s.l1;
    out.delta.l1_miss += k - s.l1;
    out.delta.l2_hit += s.l2;
    out.delta.l2_miss += s.l3 + s.miss;
    out.delta.l3_ref += s.l3 + s.miss;
    out.delta.l3_miss += s.miss;
    out.delta.xcore_hit += s.xcore;
    out.cycles += s.l1;  // L1 hits: the 1-cycle issue slot only
    out.cycles += s.l2 * (1 + ovl(cfg_.l2_latency));
    out.cycles += (s.l3 - s.xcore) * (1 + ovl(cfg_.l3_latency));
    out.cycles += s.xcore * (1 + ovl(cfg_.l3_latency + cfg_.snoop_extra));
    // Statistical classification, structural bandwidth: every modeled miss
    // queues on the real controller (and QPI for remote domains) and exerts
    // the pinned-set eviction pressure, using evenly spaced representative
    // lines of the group so the pressure lands on the sets the burst
    // actually spans.
    const int socket = socket_of(core);
    for (std::uint64_t i = 0; i < s.miss; ++i) {
      // Each miss queues at the clock as advanced so far — exactly as the
      // per-line replay would stamp it. Stamping the whole group at one
      // instant would pile the train onto the link's backlog and charge
      // quadratic queueing the real access stream never sees.
      const Cycles t = now + out.cycles;
      const Addr line = stream_group_[static_cast<std::size_t>((i * k) / s.miss)];
      const int domain = domain_of(line << kLineShift);
      Cycles lat = cfg_.l3_latency + cfg_.dram_extra;
      if (domain != socket) {
        out.delta.remote_ref += 1;
        const Cycles qd = qpi(socket, domain).request(line, t);
        out.delta.qpi_queue += qd;
        lat += cfg_.qpi_latency + qd;
      }
      const Cycles md = controller(domain).request(line, t);
      out.delta.mc_queue += md;
      lat += md;
      out.cycles += 1 + ovl(lat);
      if (adaptive_ && (line & sample_mask_) == tracked_residue_) {
        modeled_live_set_fill(core, line, type == AccessType::kWrite, t);
      } else {
        modeled_miss_pressure(core, line, t);
      }
    }
    for (std::uint64_t i = 0; i < s.wb; ++i) {
      writeback(stream_group_[static_cast<std::size_t>((i * k) / s.wb)], now + out.cycles);
    }
    stream_group_.clear();
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Addr line = line_of(addrs[i]);
    bool pinned = false;
    bool eligible = true;
    std::uint32_t bucket = 0;
    if (pins_ != nullptr) {
      const AddressSpace::LineClass& m = classify(core, line);
      pinned = m.pinned;
      eligible = widen_eligible(m);
      bucket = m.bucket;
    } else {
      bucket = model::SetSampleEstimator::bucket_of(line);
    }
    if (!pinned && !tracked_line(line, bucket, eligible)) {
      if (!stream_group_.empty() && bucket != group_bucket) flush_group();
      group_bucket = bucket;
      stream_group_.push_back(line);
      continue;
    }
    // Pinned or tracked: full replay through the ordinary access path (the
    // tracked outcome calibrates the per-access estimator there, and the
    // stream model here).
    flush_group();
    const bool calibrate_stream = !pinned;
    stream_calib_ = calibrate_stream;
    const Outcome o = access(core, addrs[i], type, now + out.cycles);
    stream_calib_ = false;
    out.cycles += 1 + ovl(o.latency);
    out.delta.add(o.delta);
    if (calibrate_stream) {
      const int level = o.delta.l1_hit != 0   ? model::StreamModel::kL1Hit
                        : o.delta.l2_hit != 0 ? model::StreamModel::kL2Hit
                        : o.delta.l3_miss != 0
                            ? model::StreamModel::kMiss
                            : model::StreamModel::kL3Hit;
      stream_->observe(core, bucket, level, o.delta.xcore_hit != 0);
    }
  }
  flush_group();
  return out;
}

void MemorySystem::modeled_live_set_fill(int core, Addr line, bool is_write, Cycles now) {
  // Only reachable under adaptive widening: a modeled line in the base
  // residue class belongs to an allocation that widened past the base
  // period, so its set is still replayed exactly for every allocation (and
  // pin) tracking this residue at a narrower effective period. Fill the set
  // for real — find-touch or insert-with-eviction, exactly as the exact
  // path would — so those tracked lines feel true capacity competition
  // from this allocation's modeled misses. (The pinned-set LRU-pressure
  // draw is wrong here: it bypasses insertion order and LRU protection and
  // measurably over-evicts tracked lines, inflating their calibrated miss
  // rate by an order of magnitude.)
  const int socket = socket_of(core);
  Cache& l3c = l3(socket);
  const auto core_bit =
      static_cast<std::uint16_t>(1U << static_cast<unsigned>(core_index_in_socket(core)));
  if (const int w = l3c.find(line); w >= 0) {
    l3c.touch_lru(line, w);
    l3c.add_core(line, w, core_bit);
    if (is_write) l3c.mark_dirty(line, w);
    return;
  }
  const Cache::Eviction ev = l3c.insert(line, is_write, core_bit);
  if (ev.valid) {
    bool dirty = ev.dirty;
    if (ev.core_mask != 0) dirty |= back_invalidate(socket, ev.tag, ev.core_mask);
    if (dirty) writeback(ev.tag, now);
  }
}

void MemorySystem::modeled_miss_pressure(int core, Addr line, Cycles now) {
  // The fill this miss implies would evict this set's LRU line. The
  // only real occupants of an un-replayed set are pinned lines; without
  // this pressure they would never lose L3 residency to competitors in
  // sampled mode (exact co-runs show DMA buffers being re-fetched under
  // contention, and that must survive sampling). Victim-is-occupied is
  // approximated as occupancy/ways; a just-touched line is spared (it
  // would not be the LRU once the un-replayed occupants are counted).
  // The set bitmap skips all of this for the vast majority of sets no
  // pinned line maps to.
  if (!pin_set_map_hit(line)) return;
  const int socket = socket_of(core);
  Cache& l3c = l3(socket);
  const std::uint32_t occ = l3c.set_occupancy(line);
  if (occ == 0) return;
  const std::uint64_t thresh = (static_cast<std::uint64_t>(occ) << 32U) / l3c.ways();
  if (static_cast<std::uint64_t>(model_rng_[static_cast<std::size_t>(core)].next()) >= thresh) {
    return;
  }
  const Cache::Eviction ev = l3c.evict_lru(line, kPinEvictIdleOps);
  if (ev.valid) {
    bool dirty = ev.dirty;
    if (ev.core_mask != 0) dirty |= back_invalidate(socket, ev.tag, ev.core_mask);
    if (dirty) writeback(ev.tag, now);
  }
}

MemorySystem::Outcome MemorySystem::access_exact(int core, Addr addr, AccessType type,
                                                 Cycles now, bool calibrate) {
  Outcome out;
  const Addr line = line_of(addr);
  const bool is_write = type == AccessType::kWrite;
  const int socket = socket_of(core);
  const auto core_bit =
      static_cast<std::uint16_t>(1U << static_cast<unsigned>(core_index_in_socket(core)));

  // L1
  Cache& l1c = l1(core);
  if (const int w = l1c.find(line); w >= 0) {
    l1c.touch_lru(line, w);
    if (is_write) l1c.mark_dirty(line, w);
    out.delta.l1_hit = 1;
    out.latency = 0;
    return out;
  }
  out.delta.l1_miss = 1;

  // L2
  Cache& l2c = l2(core);
  if (const int w = l2c.find(line); w >= 0) {
    l2c.touch_lru(line, w);
    if (is_write) l2c.mark_dirty(line, w);
    out.delta.l2_hit = 1;
    out.latency = cfg_.l2_latency;
    // Promote into L1 (inclusion within the private hierarchy).
    Cache::Eviction ev = l1c.insert(line, is_write, 0);
    if (ev.valid && ev.dirty) {
      if (const int w2 = l2c.find(ev.tag); w2 >= 0) l2c.mark_dirty(ev.tag, w2);
    }
    return out;
  }
  out.delta.l2_miss = 1;

  // L3 (shared, inclusive)
  Cache& l3c = l3(socket);
  out.delta.l3_ref = 1;
  if (const int w = l3c.find(line); w >= 0) {
    l3c.touch_lru(line, w);
    out.latency = cfg_.l3_latency;
    if ((l3c.core_mask(line, w) & static_cast<std::uint16_t>(~core_bit)) != 0 &&
        l3c.dirty(line, w)) {
      // Served by a cache-to-cache transfer from a sibling core.
      out.latency += cfg_.snoop_extra;
      out.delta.xcore_hit = 1;
    }
    l3c.add_core(line, w, core_bit);
    if (is_write) l3c.mark_dirty(line, w);
    install_private(core, line, is_write);
    return out;
  }
  out.delta.l3_miss = 1;

  // Miss to memory. Remote domains pay the QPI round plus its queueing.
  const int domain = domain_of(addr);
  Cycles lat = cfg_.l3_latency + cfg_.dram_extra;
  if (domain != socket) {
    out.delta.remote_ref = 1;
    const Cycles qd = qpi(socket, domain).request(line, now);
    out.delta.qpi_queue = static_cast<std::uint32_t>(qd);
    lat += cfg_.qpi_latency + qd;
  }
  const Cycles md = controller(domain).request(line, now);
  out.delta.mc_queue = static_cast<std::uint32_t>(md);
  lat += md;
  out.latency = lat;

  // Install into L3; inclusive eviction removes private copies socket-wide.
  Cache::Eviction ev = l3c.insert(line, is_write, core_bit);
  if (ev.valid) {
    bool dirty = ev.dirty;
    if (ev.core_mask != 0) dirty |= back_invalidate(socket, ev.tag, ev.core_mask);
    if (dirty) {
      writeback(ev.tag, now);
      if (calibrate) {
        const std::uint32_t wb_bucket = bucket_of(line);
        est_->observe_writeback(core, wb_bucket);
        if (stream_calib_) stream_->observe_writeback(core, wb_bucket);
      }
    }
  }
  install_private(core, line, is_write);
  return out;
}

void MemorySystem::install_private(int core, Addr line, bool dirty) {
  const int socket = socket_of(core);
  Cache& l1c = l1(core);
  Cache& l2c = l2(core);
  Cache& l3c = l3(socket);

  Cache::Eviction ev2 = l2c.insert(line, dirty, 0);
  if (ev2.valid) {
    // L2 is inclusive of L1: the victim leaves this core's L1 as well.
    const bool l1_dirty = l1c.invalidate(ev2.tag);
    const bool v_dirty = ev2.dirty || l1_dirty;
    if (const int w = l3c.find(ev2.tag); w >= 0) {
      if (v_dirty) l3c.mark_dirty(ev2.tag, w);
      l3c.remove_core(ev2.tag, w,
                      static_cast<std::uint16_t>(
                          1U << static_cast<unsigned>(core_index_in_socket(core))));
    }
    // If the L3 no longer holds the victim (already displaced), the dirty
    // data was written back during that displacement; nothing more to do.
  }

  Cache::Eviction ev1 = l1c.insert(line, dirty, 0);
  if (ev1.valid && ev1.dirty) {
    if (const int w = l2c.find(ev1.tag); w >= 0) l2c.mark_dirty(ev1.tag, w);
  }
}

bool MemorySystem::back_invalidate(int socket, Addr line, std::uint16_t core_mask) {
  bool dirty = false;
  const int base = socket * cfg_.cores_per_socket;
  // A stripped L1 copy of a calibration-class line stands for the effective
  // sampling period's worth of population lines losing their copies the
  // same way; the modeled lines among them pay that debt as demoted L1 hits
  // (see model_access). Pinned lines replay at full weight and carry no
  // debt. Under adaptive widening the debt scales with the allocation's
  // current effective period; a stale line (base residue but outside the
  // widened class — replayed before its allocation widened) stands only for
  // itself, so it carries no scaled debt either.
  std::uint32_t debt_add = 0;
  if (sampling_ && ((tracked_residues_ >> (line & sample_mask_)) & 1ULL) != 0 &&
      !(pins_ != nullptr && pins_->is_pinned_line(line))) {
    debt_add = sample_mask_;  // period - 1 modeled/untracked equivalents
    if (adaptive_) {
      // Mirror tracked_line's eligibility gate: only size-eligible
      // allocations carry a widened period, so an ineligible line sharing
      // a (widened) bucket keeps the base-period debt.
      std::uint32_t shift = 0;
      if (pins_ != nullptr) {
        const AddressSpace::LineClass m =
            pins_->classify_line(line, model::SetSampleEstimator::kBuckets);
        if (widen_eligible(m)) shift = est_->period_shift(m.bucket);
      } else {
        shift = est_->period_shift(model::SetSampleEstimator::bucket_of(line));
      }
      if (shift > 0) {
        const Addr eff_mask = ((static_cast<Addr>(sample_mask_) + 1) << shift) - 1;
        debt_add = (line & eff_mask) == tracked_residue_
                       ? (((sample_mask_ + 1) << shift) - 1)
                       : 0;
      }
    }
  }
  for (int i = 0; i < cfg_.cores_per_socket; ++i) {
    if ((core_mask & (1U << static_cast<unsigned>(i))) == 0) continue;
    const int core = base + i;
    if (debt_add != 0 && l1(core).find(line) >= 0) {
      std::uint32_t& debt = pending_binv_[static_cast<std::size_t>(core)];
      debt += debt_add;
      if (debt > kMaxBinvDebt) debt = kMaxBinvDebt;
    }
    dirty |= l1(core).invalidate(line);
    dirty |= l2(core).invalidate(line);
  }
  return dirty;
}

void MemorySystem::clear_link_backlogs() {
  for (auto& mc : mc_) mc->clear_backlog();
  for (auto& q : qpi_) q->clear_backlog();
}

namespace {

template <typename T>
std::vector<T> copy_all(const std::vector<std::unique_ptr<T>>& from) {
  std::vector<T> out;
  out.reserve(from.size());
  for (const auto& p : from) out.push_back(*p);
  return out;
}

template <typename T>
void assign_all(std::vector<std::unique_ptr<T>>& to, const std::vector<T>& from) {
  PP_CHECK(to.size() == from.size());
  for (std::size_t i = 0; i < to.size(); ++i) *to[i] = from[i];
}

}  // namespace

MemorySystem::State MemorySystem::save_state() const {
  State s;
  s.l1 = copy_all(l1_);
  s.l2 = copy_all(l2_);
  s.l3 = copy_all(l3_);
  s.mc = copy_all(mc_);
  s.qpi = copy_all(qpi_);
  if (est_ != nullptr) s.est = *est_;
  if (stream_ != nullptr) s.stream = *stream_;
  s.pending_binv = pending_binv_;
  s.model_rng = model_rng_;
  return s;
}

void MemorySystem::restore_state(const State& s) {
  assign_all(l1_, s.l1);
  assign_all(l2_, s.l2);
  assign_all(l3_, s.l3);
  assign_all(mc_, s.mc);
  assign_all(qpi_, s.qpi);
  PP_CHECK(s.est.has_value() == (est_ != nullptr));
  PP_CHECK(s.stream.has_value() == (stream_ != nullptr));
  if (est_ != nullptr) *est_ = *s.est;
  if (stream_ != nullptr) *stream_ = *s.stream;
  pending_binv_ = s.pending_binv;
  model_rng_ = s.model_rng;
  for (AddressSpace::LineClass& m : class_memo_) m = AddressSpace::LineClass{};
  memo_version_ = ~std::uint64_t{0};
  pin_map_version_ = ~std::uint64_t{0};
}

void MemorySystem::writeback(Addr line, Cycles now) {
  const int domain = domain_of(line << kLineShift);
  if (domain >= 0 && domain < cfg_.sockets) controller(domain).post(line, now);
}

void MemorySystem::dma_write(Addr addr, std::size_t bytes, Cycles now) {
  const Addr first = line_of(addr);
  const Addr last = line_of(addr + (bytes > 0 ? bytes - 1 : 0));
  const int domain = domain_of(addr);
  const bool valid_domain = domain >= 0 && domain < cfg_.sockets;
  for (Addr line = first; line <= last; ++line) {
    if (sampling_ && !line_is_exact(line)) {
      // Un-replayed line: no L2/L3 copies exist to displace, but modeled
      // lines do live in L1 replay — coherent DMA must still drop those
      // stale copies. The DMA consumes controller bandwidth as usual.
      // (Packet buffers are pinned by their pool, so in practice DMA
      // targets full replay and this branch is a safety net.)
      for (int c = 0; c < cfg_.num_cores(); ++c) {
        if (l1(c).invalidate(line)) writeback(line, now);
      }
      if (valid_domain) controller(domain).post(line, now);
      continue;
    }
    // Coherent DMA: stale copies disappear from every cache.
    for (int s = 0; s < cfg_.sockets; ++s) {
      Cache& l3c = l3(s);
      if (const int w = l3c.find(line); w >= 0) {
        const std::uint16_t mask = l3c.core_mask(line, w);
        if (mask != 0) back_invalidate(s, line, mask);
        l3c.invalidate(line);
      }
    }
    if (valid_domain) {
      // DCA: place the fresh line in the home L3 (clean — memory holds the
      // data too), evicting the LRU victim as any fill would.
      Cache& l3c = l3(domain);
      Cache::Eviction ev = l3c.insert(line, /*dirty=*/false, /*core_mask=*/0);
      if (ev.valid) {
        bool dirty = ev.dirty;
        if (ev.core_mask != 0) dirty |= back_invalidate(domain, ev.tag, ev.core_mask);
        if (dirty) writeback(ev.tag, now);
      }
      controller(domain).post(line, now);
    }
  }
}

void MemorySystem::dma_read(Addr addr, std::size_t bytes, Cycles now) {
  const Addr first = line_of(addr);
  const Addr last = line_of(addr + (bytes > 0 ? bytes - 1 : 0));
  const int domain = domain_of(addr);
  for (Addr line = first; line <= last; ++line) {
    if (!sampling_ || line_is_exact(line)) {
      for (int s = 0; s < cfg_.sockets; ++s) {
        Cache& l3c = l3(s);
        if (const int w = l3c.find(line); w >= 0) l3c.clear_dirty(line, w);
      }
    }
    if (domain >= 0 && domain < cfg_.sockets) controller(domain).post(line, now);
  }
}

}  // namespace pp::sim

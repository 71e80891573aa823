#include "apps/elements.hpp"

#include <algorithm>

#include "click/args.hpp"
#include "net/byteorder.hpp"
#include "net/checksum.hpp"
#include "net/generators.hpp"
#include "net/headers.hpp"

namespace pp::apps {

namespace {

/// Extract match fields from a generated packet (Ethernet+IPv4+L4).
[[nodiscard]] PacketFields fields_of(const net::PacketBuf& p) {
  PacketFields f;
  const auto l3 = p.l3();
  f.src = net::load_be32(&l3[12]);
  f.dst = net::load_be32(&l3[16]);
  f.proto = l3[9];
  if ((f.proto == net::kProtoTcp || f.proto == net::kProtoUdp) && l3.size() >= 24) {
    const auto ports = net::decode_ports(l3.subspan(20));
    f.sport = ports.src;
    f.dport = ports.dst;
  }
  return f;
}

[[nodiscard]] net::FiveTuple tuple_of(const net::PacketBuf& p) {
  const PacketFields f = fields_of(p);
  return net::FiveTuple{f.src, f.dst, f.sport, f.dport, f.proto};
}

/// Payload span after the UDP/TCP header (zero-length if none).
[[nodiscard]] std::span<std::uint8_t> payload_of(net::PacketBuf& p) {
  auto l3 = p.l3();
  if (l3.size() < 20) return {};
  const std::uint8_t proto = l3[9];
  const std::size_t l4_hdr =
      proto == net::kProtoTcp ? net::kTcpMinHeaderBytes : net::kUdpHeaderBytes;
  if (l3.size() < 20 + l4_hdr) return {};
  return l3.subspan(20 + l4_hdr);
}

[[nodiscard]] std::uint64_t sim_ns(const sim::Core& core) {
  return static_cast<std::uint64_t>(static_cast<double>(core.now()) /
                                    core.config().ghz);
}

}  // namespace

// ---------------------------------------------------------------- RadixIPLookup

std::optional<std::string> RadixIPLookup::configure(const std::vector<std::string>& args,
                                                    click::ElementEnv& env) {
  click::Args a(args);
  n_prefixes_ = a.get_u64("PREFIXES", n_prefixes_);
  seed_ = a.get_u64("SEED", env.seed);
  if (n_prefixes_ < 1 || n_prefixes_ > 2'000'000) a.error("PREFIXES out of range");
  return a.finish();
}

std::optional<std::string> RadixIPLookup::initialize(click::ElementEnv& env) {
  Pcg32 rng{seed_};
  const auto table = net::generate_prefix_table(static_cast<std::size_t>(n_prefixes_), rng,
                                                static_cast<std::uint16_t>(6));
  for (const auto& e : table) trie_.insert(e.prefix, e.len, e.next_hop);
  trie_.attach(env.machine->address_space(), env.numa_domain, trie_.node_count() + 1024);
  return std::nullopt;
}

void RadixIPLookup::prewarm(click::Context& cx) { trie_.prewarm(cx.core); }

namespace {
/// Destination address of a packet, or 0.0.0.0 for frames too short to
/// carry one (l3() clamps truncated frames to an empty span; a lookup on
/// 0.0.0.0 resolves to the default route like any unroutable packet).
[[nodiscard]] std::uint32_t dst_of(const net::PacketBuf& p) {
  const auto l3 = p.l3();
  if (l3.size() < 20) return 0;
  return net::load_be32(&l3[16]);
}
}  // namespace

void RadixIPLookup::do_push(click::Context& cx, int port, net::PacketBuf* p) {
  (void)port;
  const std::uint32_t dst = dst_of(*p);
  cx.core.compute(12);
  const std::int32_t out_port = trie_.lookup_sim(cx.core, dst);
  p->output_port = out_port < 0 ? std::uint16_t{0} : static_cast<std::uint16_t>(out_port);
  output(cx, 0, p);
}

void RadixIPLookup::do_push_batch(click::Context& cx, int port, net::PacketBuf** ps, int n) {
  (void)port;
  // lookup_sim_batch's lane arrays cap at 64; keep that in sync with the
  // largest burst an element can receive.
  static_assert(click::kMaxBatch <= 64);
  std::uint32_t dsts[click::kMaxBatch] = {};
  std::int32_t ports[click::kMaxBatch] = {};
  for (int i = 0; i < n; ++i) {
    dsts[i] = dst_of(*ps[i]);
    cx.core.compute(12);
  }
  trie_.lookup_sim_batch(cx.core, dsts, ports, n);
  for (int i = 0; i < n; ++i) {
    ps[i]->output_port = ports[i] < 0 ? std::uint16_t{0} : static_cast<std::uint16_t>(ports[i]);
  }
  output_batch(cx, 0, ps, n);
}

// --------------------------------------------------------------- FlowStatistics

std::optional<std::string> FlowStatistics::configure(const std::vector<std::string>& args,
                                                     click::ElementEnv& env) {
  (void)env;
  click::Args a(args);
  buckets_ = a.get_u64("BUCKETS", buckets_);
  if (buckets_ < 16 || (buckets_ & (buckets_ - 1)) != 0) {
    a.error("BUCKETS must be a power of two >= 16");
  }
  return a.finish();
}

std::optional<std::string> FlowStatistics::initialize(click::ElementEnv& env) {
  table_ = std::make_unique<FlowTable>(static_cast<std::size_t>(buckets_));
  table_->attach(env.machine->address_space(), env.numa_domain);
  return std::nullopt;
}

void FlowStatistics::prewarm(click::Context& cx) { table_->prewarm(cx.core); }

void FlowStatistics::do_push(click::Context& cx, int port, net::PacketBuf* p) {
  (void)port;
  const net::FiveTuple t = tuple_of(*p);
  if (!table_->update_sim(cx.core, t, p->len, sim_ns(cx.core))) ++full_events_;
  output(cx, 0, p);
}

void FlowStatistics::do_push_batch(click::Context& cx, int port, net::PacketBuf** ps, int n) {
  (void)port;
  // Hash-probe burst (see FlowTable::update_sim_batch); the burst stays
  // intact for the downstream chain instead of degrading to per-packet
  // pushes.
  net::FiveTuple tuples[click::kMaxBatch];
  std::uint32_t lens[click::kMaxBatch];
  for (int i = 0; i < n; ++i) {
    tuples[i] = tuple_of(*ps[i]);
    lens[i] = ps[i]->len;
  }
  full_events_ += table_->update_sim_batch(cx.core, tuples, lens, sim_ns(cx.core),
                                           static_cast<std::size_t>(n));
  output_batch(cx, 0, ps, n);
}

// ------------------------------------------------------------------ SeqFirewall

std::optional<std::string> SeqFirewall::configure(const std::vector<std::string>& args,
                                                  click::ElementEnv& env) {
  click::Args a(args);
  n_rules_ = a.get_u64("RULES", n_rules_);
  seed_ = a.get_u64("SEED", env.seed);
  if (n_rules_ < 1 || n_rules_ > 1'000'000) a.error("RULES out of range");
  return a.finish();
}

std::optional<std::string> SeqFirewall::initialize(click::ElementEnv& env) {
  Pcg32 rng{seed_};
  rules_ = std::make_unique<RuleSet>(net::generate_rules(static_cast<std::size_t>(n_rules_), rng));
  rules_->attach(env.machine->address_space(), env.numa_domain);
  return std::nullopt;
}

void SeqFirewall::prewarm(click::Context& cx) { rules_->prewarm(cx.core); }

void SeqFirewall::do_push(click::Context& cx, int port, net::PacketBuf* p) {
  (void)port;
  const PacketFields f = fields_of(*p);
  const std::int32_t idx = rules_->match_sim(cx.core, f);
  if (idx >= 0) {
    ++matched_;
    cx.core.count_drop();
    if (output_connected(1)) {
      output(cx, 1, p);
    } else {
      net::recycle(cx.core, p);
    }
    return;
  }
  output(cx, 0, p);
}

void SeqFirewall::do_push_batch(click::Context& cx, int port, net::PacketBuf** ps, int n) {
  (void)port;
  // Rule-scan burst: one access_many covers every packet's scanned lines,
  // then the burst is partitioned into passed and matched packets (order
  // preserved) so downstream elements and the recycler stay batched.
  PacketFields fields[click::kMaxBatch];
  std::int32_t match_idx[click::kMaxBatch];
  for (int i = 0; i < n; ++i) fields[i] = fields_of(*ps[i]);
  rules_->match_sim_batch(cx.core, fields, match_idx, static_cast<std::size_t>(n));

  net::PacketBuf* passed[click::kMaxBatch];
  net::PacketBuf* dropped[click::kMaxBatch];
  int np = 0;
  int nd = 0;
  for (int i = 0; i < n; ++i) {
    if (match_idx[i] >= 0) {
      dropped[nd++] = ps[i];
    } else {
      passed[np++] = ps[i];
    }
  }
  if (nd > 0) {
    matched_ += static_cast<std::uint64_t>(nd);
    cx.core.count_drops(static_cast<std::uint64_t>(nd));
    if (output_connected(1)) {
      output_batch(cx, 1, dropped, nd);
    } else {
      net::recycle_batch(cx.core, dropped, static_cast<std::size_t>(nd));
    }
  }
  if (np > 0) output_batch(cx, 0, passed, np);
}

// --------------------------------------------------------------- RedundancyElim

std::optional<std::string> RedundancyElim::configure(const std::vector<std::string>& args,
                                                     click::ElementEnv& env) {
  (void)env;
  click::Args a(args);
  store_mb_ = a.get_u64("STORE_MB", store_mb_);
  table_slots_ = a.get_u64("TABLE_SLOTS", table_slots_);
  rewrite_ = a.get_bool("REWRITE", rewrite_);
  if (store_mb_ < 1 || store_mb_ > 2048) a.error("STORE_MB out of range [1, 2048]");
  if (table_slots_ < 16 || (table_slots_ & (table_slots_ - 1)) != 0) {
    a.error("TABLE_SLOTS must be a power of two >= 16");
  }
  return a.finish();
}

std::optional<std::string> RedundancyElim::initialize(click::ElementEnv& env) {
  store_ = std::make_unique<PacketStore>(static_cast<std::size_t>(store_mb_) << 20);
  table_ = std::make_unique<FingerprintTable>(static_cast<std::size_t>(table_slots_));
  store_->attach(env.machine->address_space(), env.numa_domain);
  table_->attach(env.machine->address_space(), env.numa_domain);
  encoder_ = std::make_unique<ReEncoder>(*store_, *table_);
  return std::nullopt;
}

void RedundancyElim::encode_one(click::Context& cx, net::PacketBuf* p,
                                sim::StreamBurst* burst) {
  auto payload = payload_of(*p);
  if (payload.size() < Rabin::kWindow) return;
  const std::vector<std::uint8_t> encoded = encoder_->encode(payload, &cx.core, burst);
  if (rewrite_ && encoded.size() < payload.size()) {
    // Shrink the packet on the wire: rewrite payload, patch lengths and the
    // IP checksum (the far end reverses this with its mirrored store).
    std::copy(encoded.begin(), encoded.end(), payload.begin());
    const std::uint32_t delta = static_cast<std::uint32_t>(payload.size() - encoded.size());
    p->len -= delta;
    auto l3 = p->l3();
    net::Ipv4Fields ip = net::decode_ipv4(l3);
    ip.total_length = static_cast<std::uint16_t>(ip.total_length - delta);
    net::encode_ipv4(ip, l3);
    if (ip.protocol == net::kProtoUdp) {
      net::store_be16(&l3[24], static_cast<std::uint16_t>(net::load_be16(&l3[24]) - delta));
    }
    cx.core.compute(60);
    if (burst != nullptr) {
      burst->add_line(p->sim_addr(p->l3_offset), sim::AccessType::kWrite);
    } else {
      cx.core.store(p->sim_addr(p->l3_offset));
    }
  }
}

void RedundancyElim::do_push(click::Context& cx, int port, net::PacketBuf* p) {
  (void)port;
  if (cx.core.memory().payload_model_active()) {
    // SimFidelity::kStreamed: stage the per-packet streaming charges into
    // the same burst the batch path uses, so the stream model serves the
    // payload traffic at any batch size.
    burst_.clear();
    encode_one(cx, p, &burst_);
    burst_.flush(cx.core);
  } else {
    encode_one(cx, p, nullptr);
  }
  output(cx, 0, p);
}

void RedundancyElim::do_push_batch(click::Context& cx, int port, net::PacketBuf** ps, int n) {
  (void)port;
  // Payload-streaming burst: the per-packet host-side encoding (store and
  // fingerprint-table mutation order included) is unchanged, and the
  // dependent table probes still charge per packet; only the big streaming
  // charges — match verification/extension reads and store-append writes —
  // are accumulated and issued as one read burst + one write burst.
  burst_.clear();
  for (int i = 0; i < n; ++i) encode_one(cx, ps[i], &burst_);
  burst_.flush(cx.core);
  output_batch(cx, 0, ps, n);
}

// ------------------------------------------------------------------- VpnEncrypt

std::optional<std::string> VpnEncrypt::configure(const std::vector<std::string>& args,
                                                 click::ElementEnv& env) {
  (void)env;
  click::Args a(args);
  instr_per_byte_ = a.get_u64("INSTR_PER_BYTE", instr_per_byte_);
  if (instr_per_byte_ < 1 || instr_per_byte_ > 1000) a.error("INSTR_PER_BYTE out of range");
  return a.finish();
}

std::optional<std::string> VpnEncrypt::initialize(click::ElementEnv& env) {
  // 4 KB of lookup tables (Te-table footprint), resident in the cache sim.
  tables_ = sim::Region::make(env.machine->address_space(), env.numa_domain, sim::kLineBytes,
                              4096 / sim::kLineBytes);
  return std::nullopt;
}

void VpnEncrypt::charge_one(click::Context& cx, net::PacketBuf* p, sim::StreamBurst* burst,
                            std::uint64_t* deferred_instr) {
  constexpr std::size_t kAesBlockBytes = 16;
  auto payload = payload_of(*p);
  if (payload.empty()) return;
  const std::size_t blocks = (payload.size() + kAesBlockBytes - 1) / kAesBlockBytes;
  // Cost model: software AES ALU work plus table residency + payload I/O.
  const std::uint64_t instr = instr_per_byte_ * payload.size();
  if (burst != nullptr) {
    *deferred_instr += instr;
    for (std::size_t b = 0; b < blocks; ++b) {
      burst->add_line(tables_.at(table_cursor_), sim::AccessType::kRead);
      table_cursor_ = (table_cursor_ + 1) % tables_.count();
    }
    burst->add(p->sim_addr(static_cast<std::size_t>(payload.data() - p->bytes.data())),
               payload.size(), sim::AccessType::kWrite);
  } else {
    cx.core.compute(instr);
    for (std::size_t b = 0; b < blocks; ++b) {
      cx.core.load(tables_.at(table_cursor_), /*dependent=*/false);
      table_cursor_ = (table_cursor_ + 1) % tables_.count();
    }
    cx.core.stream(p->sim_addr(static_cast<std::size_t>(payload.data() - p->bytes.data())),
                   payload.size(), sim::AccessType::kWrite);
  }
}

void VpnEncrypt::do_push(click::Context& cx, int port, net::PacketBuf* p) {
  (void)port;
  if (cx.core.memory().payload_model_active()) {
    // SimFidelity::kStreamed: see RedundancyElim::do_push.
    burst_.clear();
    std::uint64_t instr = 0;
    charge_one(cx, p, &burst_, &instr);
    if (instr > 0) cx.core.compute(instr);
    burst_.flush(cx.core);
  } else {
    charge_one(cx, p, nullptr, nullptr);
  }
  output(cx, 0, p);
}

void VpnEncrypt::do_push_batch(click::Context& cx, int port, net::PacketBuf** ps, int n) {
  (void)port;
  // Payload-streaming burst: the table-cursor sequence is identical to the
  // per-packet path; the ALU charge is summed, and the AES-table loads plus
  // the payload write-backs of the whole burst are issued as one read burst
  // + one write burst.
  burst_.clear();
  std::uint64_t instr = 0;
  for (int i = 0; i < n; ++i) charge_one(cx, ps[i], &burst_, &instr);
  if (instr > 0) cx.core.compute(instr);
  burst_.flush(cx.core);
  output_batch(cx, 0, ps, n);
}

// ----------------------------------------------------------------- SynProcessor

std::optional<std::string> SynProcessor::configure(const std::vector<std::string>& args,
                                                   click::ElementEnv& env) {
  (void)env;
  click::Args a(args);
  reads_ = a.get_u64("READS", reads_);
  instr_ = a.get_u64("INSTR", instr_);
  alt_reads_ = a.get_u64("ALT_READS", alt_reads_);
  alt_instr_ = a.get_u64("ALT_INSTR", alt_instr_);
  trig_off_ = static_cast<std::int64_t>(a.get_u64("TRIG_OFF", 0));
  if (!a.has("TRIG_OFF")) trig_off_ = -1;
  trig_val_ = a.get_u64("TRIG_VAL", 0xEE);
  trig_after_ = a.get_u64("TRIG_AFTER", 0);
  table_mb_ = a.get_u64("TABLE_MB", table_mb_);
  if (table_mb_ < 1 || table_mb_ > 256) a.error("TABLE_MB out of range [1, 256]");
  return a.finish();
}

std::optional<std::string> SynProcessor::initialize(click::ElementEnv& env) {
  table_ = sim::Region::make(env.machine->address_space(), env.numa_domain, sim::kLineBytes,
                             (table_mb_ << 20) / sim::kLineBytes);
  rng_ = Pcg32{env.seed};
  return std::nullopt;
}

void SynProcessor::do_push(click::Context& cx, int port, net::PacketBuf* p) {
  (void)port;
  ++packets_seen_;
  if (!triggered_ && trig_off_ >= 0 && static_cast<std::size_t>(trig_off_) < p->len &&
      p->bytes[static_cast<std::size_t>(trig_off_)] == trig_val_) {
    triggered_ = true;  // hidden aggressiveness unlocked by a crafted packet
  }
  if (!triggered_ && trig_after_ > 0 && packets_seen_ >= trig_after_) {
    triggered_ = true;  // deterministic stand-in: the crafted packet is the Nth
  }
  const std::uint64_t reads = triggered_ ? alt_reads_ : reads_;
  const std::uint64_t instr = triggered_ ? alt_instr_ : instr_;
  if (instr > 0) cx.core.compute(instr);
  // Independent probes issued as one burst (identical access sequence;
  // counter bookkeeping hoisted out of the loop).
  addr_scratch_.resize(reads);
  for (std::uint64_t i = 0; i < reads; ++i) {
    addr_scratch_[i] = table_.at(rng_.bounded(static_cast<std::uint32_t>(table_.count())));
  }
  // stream_burst == access_many(..., dependent=false) outside the streamed
  // tier; under SIM_FIDELITY=streamed these independent uniform probes are
  // served by the per-burst stream model (no per-line recency to lose).
  cx.core.stream_burst(addr_scratch_.data(), reads, sim::AccessType::kRead);
  output(cx, 0, p);
}

void SynProcessor::do_push_batch(click::Context& cx, int port, net::PacketBuf** ps, int n) {
  (void)port;
  // Same per-packet trigger evaluation, instruction charge, and probe
  // addresses (same RNG sequence) as the per-packet path; the burst's
  // independent probes are then issued as one access_many call so the
  // counter bookkeeping is applied once per burst.
  addr_scratch_.clear();
  for (int i = 0; i < n; ++i) {
    net::PacketBuf* p = ps[i];
    ++packets_seen_;
    if (!triggered_ && trig_off_ >= 0 && static_cast<std::size_t>(trig_off_) < p->len &&
        p->bytes[static_cast<std::size_t>(trig_off_)] == trig_val_) {
      triggered_ = true;
    }
    if (!triggered_ && trig_after_ > 0 && packets_seen_ >= trig_after_) {
      triggered_ = true;
    }
    const std::uint64_t reads = triggered_ ? alt_reads_ : reads_;
    const std::uint64_t instr = triggered_ ? alt_instr_ : instr_;
    if (instr > 0) cx.core.compute(instr);
    for (std::uint64_t r = 0; r < reads; ++r) {
      addr_scratch_.push_back(
          table_.at(rng_.bounded(static_cast<std::uint32_t>(table_.count()))));
    }
  }
  cx.core.stream_burst(addr_scratch_.data(), addr_scratch_.size(), sim::AccessType::kRead);
  output_batch(cx, 0, ps, n);
}

// -------------------------------------------------------------------- SynSource

std::optional<std::string> SynSource::configure(const std::vector<std::string>& args,
                                                click::ElementEnv& env) {
  (void)env;
  click::Args a(args);
  reads_ = a.get_u64("READS", reads_);
  instr_ = a.get_u64("INSTR", instr_);
  table_mb_ = a.get_u64("TABLE_MB", table_mb_);
  if (reads_ < 1 || reads_ > 4096) a.error("READS out of range [1, 4096]");
  if (table_mb_ < 1 || table_mb_ > 256) a.error("TABLE_MB out of range [1, 256]");
  return a.finish();
}

std::optional<std::string> SynSource::initialize(click::ElementEnv& env) {
  table_ = sim::Region::make(env.machine->address_space(), env.numa_domain, sim::kLineBytes,
                             (table_mb_ << 20) / sim::kLineBytes);
  rng_ = Pcg32{env.seed};
  return std::nullopt;
}

void SynSource::prewarm(click::Context& cx) { sim::warm_region(cx.core, table_); }

void SynSource::run_once(click::Context& cx) {
  if (instr_ > 0) cx.core.compute(instr_);
  addr_scratch_.resize(reads_);
  for (std::uint64_t i = 0; i < reads_; ++i) {
    addr_scratch_[i] = table_.at(rng_.bounded(static_cast<std::uint32_t>(table_.count())));
  }
  // See SynProcessor::do_push for why this is stream_burst.
  cx.core.stream_burst(addr_scratch_.data(), reads_, sim::AccessType::kRead);
  cx.core.count_packet();  // one work unit ("batch") for throughput accounting
}

// ----------------------------------------------------------------- registration

void register_app_elements(click::Registry& r) {
  r.register_class("RadixIPLookup", [] { return std::make_unique<RadixIPLookup>(); });
  r.register_class("FlowStatistics", [] { return std::make_unique<FlowStatistics>(); });
  r.register_class("SeqFirewall", [] { return std::make_unique<SeqFirewall>(); });
  r.register_class("RedundancyElim", [] { return std::make_unique<RedundancyElim>(); });
  r.register_class("VpnEncrypt", [] { return std::make_unique<VpnEncrypt>(); });
  r.register_class("SynProcessor", [] { return std::make_unique<SynProcessor>(); });
  r.register_class("SynSource", [] { return std::make_unique<SynSource>(); });
}

}  // namespace pp::apps

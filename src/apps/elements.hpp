// Click elements wrapping the application engines — the paper's five
// realistic packet-processing types (Section 2.1) plus the SYN synthetic
// workload used for profiling:
//
//   RadixIPLookup   longest-prefix match over a radix trie (IP)
//   FlowStatistics  NetFlow per-flow accounting (MON adds this to IP)
//   SeqFirewall     1000-rule sequential filter (FW adds this to MON)
//   RedundancyElim  Spring-Wetherall RE (RE adds this to MON)
//   VpnEncrypt      the cost of AES-128 over the payload: ALU work, table
//                   loads and the payload write-back (VPN adds this to MON*)
//   SynProcessor    per-packet synthetic work, with an optional hidden
//                   mode-switch (Section 4's "contained aggressiveness")
//   SynSource       packet-less synthetic driver (SYN / SYN_MAX competitors)
//
// *The paper's VPN = IP + NetFlow + AES. Only the cost is simulated: no
// element reads the ciphertext, so the payload bytes are left as they are.
#pragma once

#include <memory>

#include "apps/firewall.hpp"
#include "apps/flow_table.hpp"
#include "apps/radix_trie.hpp"
#include "apps/re_codec.hpp"
#include "apps/re_store.hpp"
#include "click/element.hpp"
#include "click/registry.hpp"

namespace pp::apps {

class RadixIPLookup final : public click::Element {
 public:
  [[nodiscard]] std::string_view class_name() const override { return "RadixIPLookup"; }
  [[nodiscard]] std::optional<std::string> configure(const std::vector<std::string>& args,
                                                     click::ElementEnv& env) override;
  [[nodiscard]] std::optional<std::string> initialize(click::ElementEnv& env) override;

  [[nodiscard]] const RadixTrie& trie() const { return trie_; }
  void prewarm(click::Context& cx) override;

 protected:
  void do_push(click::Context& cx, int port, net::PacketBuf* p) override;
  void do_push_batch(click::Context& cx, int port, net::PacketBuf** ps, int n) override;

 private:
  std::uint64_t n_prefixes_ = 128'000;
  std::uint64_t seed_ = 0;
  RadixTrie trie_;
};

class FlowStatistics final : public click::Element {
 public:
  [[nodiscard]] std::string_view class_name() const override { return "FlowStatistics"; }
  [[nodiscard]] std::optional<std::string> configure(const std::vector<std::string>& args,
                                                     click::ElementEnv& env) override;
  [[nodiscard]] std::optional<std::string> initialize(click::ElementEnv& env) override;

  [[nodiscard]] const FlowTable& table() const { return *table_; }
  void prewarm(click::Context& cx) override;
  [[nodiscard]] std::uint64_t table_full_events() const { return full_events_; }

 protected:
  void do_push(click::Context& cx, int port, net::PacketBuf* p) override;
  void do_push_batch(click::Context& cx, int port, net::PacketBuf** ps, int n) override;

 private:
  std::uint64_t buckets_ = 1ULL << 17;  // holds the paper's 100k flows
  std::unique_ptr<FlowTable> table_;
  std::uint64_t full_events_ = 0;
};

class SeqFirewall final : public click::Element {
 public:
  [[nodiscard]] std::string_view class_name() const override { return "SeqFirewall"; }
  [[nodiscard]] int n_outputs() const override { return 2; }  // 1 = matched (drop)
  [[nodiscard]] std::optional<std::string> configure(const std::vector<std::string>& args,
                                                     click::ElementEnv& env) override;
  [[nodiscard]] std::optional<std::string> initialize(click::ElementEnv& env) override;

  [[nodiscard]] std::uint64_t matched() const { return matched_; }
  void prewarm(click::Context& cx) override;

 protected:
  void do_push(click::Context& cx, int port, net::PacketBuf* p) override;
  void do_push_batch(click::Context& cx, int port, net::PacketBuf** ps, int n) override;

 private:
  std::uint64_t n_rules_ = 1000;
  std::uint64_t seed_ = 0;
  std::unique_ptr<RuleSet> rules_;
  std::uint64_t matched_ = 0;
};

class RedundancyElim final : public click::Element {
 public:
  [[nodiscard]] std::string_view class_name() const override { return "RedundancyElim"; }
  [[nodiscard]] std::optional<std::string> configure(const std::vector<std::string>& args,
                                                     click::ElementEnv& env) override;
  [[nodiscard]] std::optional<std::string> initialize(click::ElementEnv& env) override;

  [[nodiscard]] const ReStats& re_stats() const { return encoder_->stats(); }

 protected:
  void do_push(click::Context& cx, int port, net::PacketBuf* p) override;
  void do_push_batch(click::Context& cx, int port, net::PacketBuf** ps, int n) override;

 private:
  /// Shared packet-rewrite step of both push paths; streaming charges go to
  /// `burst` when batching.
  void encode_one(click::Context& cx, net::PacketBuf* p, sim::StreamBurst* burst);

  std::uint64_t store_mb_ = 16;
  std::uint64_t table_slots_ = 1ULL << 21;
  bool rewrite_ = true;
  std::unique_ptr<PacketStore> store_;
  std::unique_ptr<FingerprintTable> table_;
  std::unique_ptr<ReEncoder> encoder_;
  sim::StreamBurst burst_;  // payload-streaming staging (host side)
};

class VpnEncrypt final : public click::Element {
 public:
  [[nodiscard]] std::string_view class_name() const override { return "VpnEncrypt"; }
  [[nodiscard]] std::optional<std::string> configure(const std::vector<std::string>& args,
                                                     click::ElementEnv& env) override;
  [[nodiscard]] std::optional<std::string> initialize(click::ElementEnv& env) override;

 protected:
  void do_push(click::Context& cx, int port, net::PacketBuf* p) override;
  void do_push_batch(click::Context& cx, int port, net::PacketBuf** ps, int n) override;

 private:
  /// Shared AES cost model of both push paths. Per-packet (burst ==
  /// nullptr): charges immediately, in do_push's historical order.
  /// Batched: defers the table loads / payload write-back into `burst` and
  /// accumulates the ALU charge into `deferred_instr`.
  void charge_one(click::Context& cx, net::PacketBuf* p, sim::StreamBurst* burst,
                  std::uint64_t* deferred_instr);

  std::uint64_t instr_per_byte_ = 14;  // software AES cost model
  sim::Region tables_;  // simulated residency of the AES tables (4 KB)
  std::size_t table_cursor_ = 0;
  sim::StreamBurst burst_;  // table-load + payload-write staging (host side)
};

/// Per-packet synthetic processing with an optional hidden mode switch: when
/// byte TRIG_OFF of a packet equals TRIG_VAL, the element flips to the ALT_*
/// parameters (the paper's crafted-packet attack in Section 4).
class SynProcessor final : public click::Element {
 public:
  [[nodiscard]] std::string_view class_name() const override { return "SynProcessor"; }
  [[nodiscard]] std::optional<std::string> configure(const std::vector<std::string>& args,
                                                     click::ElementEnv& env) override;
  [[nodiscard]] std::optional<std::string> initialize(click::ElementEnv& env) override;

  [[nodiscard]] bool triggered() const { return triggered_; }
  void reset_mode() { triggered_ = false; }

 protected:
  void do_push(click::Context& cx, int port, net::PacketBuf* p) override;
  void do_push_batch(click::Context& cx, int port, net::PacketBuf** ps, int n) override;

 private:
  std::uint64_t reads_ = 4;
  std::uint64_t instr_ = 100;
  std::uint64_t alt_reads_ = 0;
  std::uint64_t alt_instr_ = 0;
  std::int64_t trig_off_ = -1;
  std::uint64_t trig_val_ = 0;
  std::uint64_t trig_after_ = 0;  // >0: trigger after N packets (crafted-packet stand-in)
  std::uint64_t packets_seen_ = 0;
  std::uint64_t table_mb_ = 12;
  bool triggered_ = false;
  sim::Region table_;
  Pcg32 rng_{1};
  std::vector<sim::Addr> addr_scratch_;  // batched-probe staging (host side)
};

/// Packet-less synthetic driver: each batch performs COMPUTE instructions
/// and READS independent random loads over a TABLE_MB-sized region (the
/// paper's SYN; READS-only at the highest rate = SYN_MAX).
class SynSource final : public click::Element, public click::Driver {
 public:
  [[nodiscard]] std::string_view class_name() const override { return "SynSource"; }
  [[nodiscard]] int n_inputs() const override { return 0; }
  [[nodiscard]] int n_outputs() const override { return 0; }
  [[nodiscard]] std::optional<std::string> configure(const std::vector<std::string>& args,
                                                     click::ElementEnv& env) override;
  [[nodiscard]] std::optional<std::string> initialize(click::ElementEnv& env) override;

  void run_once(click::Context& cx) override;

  /// Runtime knob used by the sweep profiler to ramp refs/sec.
  void prewarm(click::Context& cx) override;

  void set_compute(std::uint64_t instr) { instr_ = instr; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }

 protected:
  void do_push(click::Context&, int, net::PacketBuf*) override {}

 private:
  std::uint64_t reads_ = 32;
  std::uint64_t instr_ = 0;
  std::uint64_t table_mb_ = 12;
  sim::Region table_;
  Pcg32 rng_{1};
  std::vector<sim::Addr> addr_scratch_;  // batched-probe staging (host side)
};

/// Register all application elements.
void register_app_elements(click::Registry& r);

}  // namespace pp::apps

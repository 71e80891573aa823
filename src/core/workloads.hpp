// Workload construction: the paper's packet-processing flow types
// (Section 2.1) assembled as element chains, with sizes that scale with
// REPRO_SCALE (full = the paper's sizes).
//
// Chain composition follows the paper exactly:
//   IP   = FromDevice -> CheckIPHeader -> RadixIPLookup -> DecIPTTL -> ToDevice
//   MON  = IP   + FlowStatistics               (NetFlow on top of forwarding)
//   FW   = MON  + SeqFirewall                  (1000-rule sequential filter)
//   RE   = MON  + RedundancyElim               (packet store + fingerprints)
//   VPN  = MON  + VpnEncrypt                   (AES-128's cost per packet)
//   SYN  = SynSource                           (profiling antagonist)
#pragma once

#include <optional>
#include <string>

#include "base/env.hpp"
#include "click/registry.hpp"
#include "click/router.hpp"

namespace pp::core {

enum class FlowType : std::uint8_t { kIp, kMon, kFw, kRe, kVpn, kSyn, kSynMax };

[[nodiscard]] const char* to_string(FlowType t);

/// The realistic types, in the paper's order (Table 1 rows).
inline constexpr FlowType kRealisticTypes[] = {FlowType::kIp, FlowType::kMon, FlowType::kFw,
                                               FlowType::kRe, FlowType::kVpn};

/// Synthetic-flow knobs (SYN/SYN_MAX): per-batch reads and ALU instructions
/// over a table of `table_mb` MB.
struct SynParams {
  std::uint64_t reads = 32;
  std::uint64_t instr = 0;
  std::uint64_t table_mb = 12;

  [[nodiscard]] bool operator==(const SynParams&) const = default;
};

/// Structure sizes per scale. `full` matches the paper; smaller scales keep
/// every working set comfortably larger than the fair cache share so the
/// contention regime (Section 6: saturated cache) is preserved.
struct WorkloadSizes {
  std::uint64_t prefixes = 96'000;        // routing table entries
  std::uint64_t flow_buckets = 1ULL << 18;  // NetFlow table (holds 100k flows)
  std::uint64_t flow_pool = 100'000;      // distinct 5-tuples in traffic
  std::uint64_t rules = 1000;             // firewall rules
  std::uint64_t re_store_mb = 16;         // RE packet store
  std::uint64_t re_table_slots = 1ULL << 20;  // RE fingerprint slots
  std::uint32_t small_packet = 64;        // IP/MON/FW packet size
  std::uint32_t re_packet = 1500;         // RE packet size (payload-heavy)
  std::uint32_t vpn_packet = 1024;        // VPN packet size

  [[nodiscard]] static WorkloadSizes for_scale(Scale s);
};

/// One flow to run: its type, optional synthetic override, input seed, and
/// driver burst size.
struct FlowSpec {
  FlowType type = FlowType::kIp;
  SynParams syn;  // used by kSyn; kSynMax always runs 64 reads
  std::uint64_t seed = 1;
  /// FromDevice burst size (BATCH driver arg; 1 = per-packet execution,
  /// bit-identical to the pre-batching platform). Ignored by kSyn/kSynMax.
  int batch = 1;

  [[nodiscard]] bool operator==(const FlowSpec&) const = default;

  [[nodiscard]] static FlowSpec of(FlowType t, std::uint64_t seed = 1) {
    FlowSpec s;
    s.type = t;
    s.seed = seed;
    return s;
  }
  [[nodiscard]] static FlowSpec syn_flow(SynParams p, std::uint64_t seed = 1) {
    FlowSpec s;
    s.type = FlowType::kSyn;
    s.syn = p;
    s.seed = seed;
    return s;
  }
};

/// Build `spec`'s element chain into `router` (which is bound to a core and
/// NUMA domain). Returns an error message on failure.
[[nodiscard]] std::optional<std::string> build_flow(click::Router& router, const FlowSpec& spec,
                                                    const WorkloadSizes& sizes,
                                                    const click::Registry& registry);

/// `spec`'s chain as configuration-language text: what build_flow parses.
/// `spec.batch` > 1 adds a BATCH driver arg to the source; BATCH 1 emits
/// the historical text unchanged. SYN/SYN_MAX carry their SynParams.
[[nodiscard]] std::string flow_config_text(const FlowSpec& spec, const WorkloadSizes& sizes);

/// A registry with all standard + application elements registered.
[[nodiscard]] const click::Registry& default_registry();

}  // namespace pp::core

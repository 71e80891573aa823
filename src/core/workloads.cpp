#include "core/workloads.hpp"

#include "apps/elements.hpp"
#include "base/strings.hpp"
#include "click/parser.hpp"

namespace pp::core {

const char* to_string(FlowType t) {
  switch (t) {
    case FlowType::kIp:
      return "IP";
    case FlowType::kMon:
      return "MON";
    case FlowType::kFw:
      return "FW";
    case FlowType::kRe:
      return "RE";
    case FlowType::kVpn:
      return "VPN";
    case FlowType::kSyn:
      return "SYN";
    case FlowType::kSynMax:
      return "SYN_MAX";
  }
  return "?";
}

WorkloadSizes WorkloadSizes::for_scale(Scale s) {
  WorkloadSizes z;
  switch (s) {
    case Scale::kQuick:
      z.prefixes = 48'000;
      z.flow_pool = 50'000;
      z.flow_buckets = 1ULL << 17;
      z.re_store_mb = 8;
      z.re_table_slots = 1ULL << 19;
      break;
    case Scale::kStandard:
      break;  // defaults above
    case Scale::kFull:
      z.prefixes = 128'000;  // the paper's table size
      z.flow_pool = 100'000;
      z.flow_buckets = 1ULL << 18;
      z.re_store_mb = 32;
      z.re_table_slots = 1ULL << 22;  // the paper's ">4 million entries"
      break;
  }
  return z;
}

namespace {

/// SYN_MAX: the most aggressive synthetic competitor, whatever FlowSpec::syn
/// holds.
constexpr SynParams kSynMaxParams{64, 0, 12};

}  // namespace

std::string flow_config_text(const FlowSpec& spec, const WorkloadSizes& z) {
  const std::uint64_t seed = spec.seed;
  // batch == 1 emits the historical text byte-for-byte (BATCH 1 is the
  // parser default), so existing goldens and cache keys derived from the
  // text are unaffected.
  const std::string batch_arg =
      spec.batch > 1 ? strformat(", BATCH %d", spec.batch) : std::string();
  const std::string src64 =
      strformat("FromDevice(FLOWPOOL, BYTES %u, POOL %llu, SEED %llu%s)", z.small_packet,
                static_cast<unsigned long long>(z.flow_pool),
                static_cast<unsigned long long>(seed), batch_arg.c_str());
  const std::string lookup = strformat("RadixIPLookup(PREFIXES %llu, SEED %llu)",
                                       static_cast<unsigned long long>(z.prefixes),
                                       static_cast<unsigned long long>(seed ^ 0xA5A5));
  const std::string stats =
      strformat("FlowStatistics(BUCKETS %llu)", static_cast<unsigned long long>(z.flow_buckets));

  switch (spec.type) {
    case FlowType::kIp:
      // The paper's IP input: fully random destinations.
      return strformat(
                 "src :: FromDevice(RANDOM, BYTES %u, SEED %llu%s);\n", z.small_packet,
                 static_cast<unsigned long long>(seed), batch_arg.c_str()) +
             "check :: CheckIPHeader;\n"
             "lookup :: " + lookup + ";\n"
             "ttl :: DecIPTTL;\n"
             "out :: ToDevice;\n"
             "src -> check -> lookup -> ttl -> out;\n";
    case FlowType::kMon:
      return "src :: " + src64 + ";\n"
             "check :: CheckIPHeader;\n"
             "lookup :: " + lookup + ";\n"
             "stats :: " + stats + ";\n"
             "ttl :: DecIPTTL;\n"
             "out :: ToDevice;\n"
             "src -> check -> lookup -> stats -> ttl -> out;\n";
    case FlowType::kFw:
      return "src :: " + src64 + ";\n"
             "check :: CheckIPHeader;\n"
             "lookup :: " + lookup + ";\n"
             "stats :: " + stats + ";\n" +
             strformat("fw :: SeqFirewall(RULES %llu, SEED %llu);\n",
                       static_cast<unsigned long long>(z.rules),
                       static_cast<unsigned long long>(seed ^ 0x5A5A)) +
             "ttl :: DecIPTTL;\n"
             "out :: ToDevice;\n"
             "src -> check -> lookup -> stats -> fw -> ttl -> out;\n"
             "fw [1] -> Discard;\n";
    case FlowType::kRe:
      return strformat("src :: FromDevice(CONTENT, BYTES %u, SEED %llu, RED 0.0%s);\n",
                       z.re_packet, static_cast<unsigned long long>(seed),
                       batch_arg.c_str()) +
             "check :: CheckIPHeader;\n"
             "lookup :: " + lookup + ";\n"
             "stats :: " + stats + ";\n" +
             strformat("re :: RedundancyElim(STORE_MB %llu, TABLE_SLOTS %llu);\n",
                       static_cast<unsigned long long>(z.re_store_mb),
                       static_cast<unsigned long long>(z.re_table_slots)) +
             "ttl :: DecIPTTL;\n"
             "out :: ToDevice;\n"
             "src -> check -> lookup -> stats -> re -> ttl -> out;\n";
    case FlowType::kVpn:
      return strformat("src :: FromDevice(FLOWPOOL, BYTES %u, POOL %llu, SEED %llu%s);\n",
                       z.vpn_packet, static_cast<unsigned long long>(z.flow_pool),
                       static_cast<unsigned long long>(seed), batch_arg.c_str()) +
             "check :: CheckIPHeader;\n"
             "lookup :: " + lookup + ";\n"
             "stats :: " + stats + ";\n"
             "vpn :: VpnEncrypt;\n"
             "ttl :: DecIPTTL;\n"
             "out :: ToDevice;\n"
             "src -> check -> lookup -> stats -> vpn -> ttl -> out;\n";
    case FlowType::kSyn:
    case FlowType::kSynMax: {
      const SynParams p = spec.type == FlowType::kSynMax ? kSynMaxParams : spec.syn;
      return strformat("syn :: SynSource(READS %llu, INSTR %llu, TABLE_MB %llu);\n",
                       static_cast<unsigned long long>(p.reads),
                       static_cast<unsigned long long>(p.instr),
                       static_cast<unsigned long long>(p.table_mb));
    }
  }
  return {};
}

std::optional<std::string> build_flow(click::Router& router, const FlowSpec& spec,
                                      const WorkloadSizes& z, const click::Registry& registry) {
  return click::parse_config(flow_config_text(spec, z), registry, router);
}

const click::Registry& default_registry() {
  static const click::Registry registry = [] {
    click::Registry r;
    click::register_standard_elements(r);
    apps::register_app_elements(r);
    return r;
  }();
  return registry;
}

}  // namespace pp::core

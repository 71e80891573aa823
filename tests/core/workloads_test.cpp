#include "core/workloads.hpp"

#include <gtest/gtest.h>

#include "click/parser.hpp"
#include "sim/machine.hpp"

namespace pp::core {
namespace {

TEST(Workloads, SizesScaleMonotonically) {
  const WorkloadSizes q = WorkloadSizes::for_scale(Scale::kQuick);
  const WorkloadSizes s = WorkloadSizes::for_scale(Scale::kStandard);
  const WorkloadSizes f = WorkloadSizes::for_scale(Scale::kFull);
  EXPECT_LT(q.prefixes, s.prefixes);
  EXPECT_LE(s.prefixes, f.prefixes);
  EXPECT_EQ(f.prefixes, 128'000U);  // the paper's routing table
  EXPECT_EQ(f.re_table_slots, 1ULL << 22);
}

TEST(Workloads, FlowTypeNames) {
  EXPECT_STREQ(to_string(FlowType::kIp), "IP");
  EXPECT_STREQ(to_string(FlowType::kMon), "MON");
  EXPECT_STREQ(to_string(FlowType::kFw), "FW");
  EXPECT_STREQ(to_string(FlowType::kRe), "RE");
  EXPECT_STREQ(to_string(FlowType::kVpn), "VPN");
  EXPECT_STREQ(to_string(FlowType::kSynMax), "SYN_MAX");
}

TEST(Workloads, ConfigTextParsesForEveryRealisticType) {
  const WorkloadSizes z = WorkloadSizes::for_scale(Scale::kQuick);
  for (const FlowType t : kRealisticTypes) {
    sim::Machine machine;
    click::Router router(machine, 0, 0, 1);
    const std::string text = flow_config_text(FlowSpec::of(t, 7), z);
    const auto err = click::parse_config(text, default_registry(), router);
    EXPECT_FALSE(err.has_value()) << to_string(t) << ": " << *err << "\n" << text;
  }
}

TEST(Workloads, BuildFlowInitializesEveryType) {
  const WorkloadSizes z = WorkloadSizes::for_scale(Scale::kQuick);
  for (const FlowType t :
       {FlowType::kIp, FlowType::kMon, FlowType::kFw, FlowType::kRe, FlowType::kVpn,
        FlowType::kSyn, FlowType::kSynMax}) {
    sim::Machine machine;
    click::Router router(machine, 0, 0, 1);
    auto err = build_flow(router, FlowSpec::of(t), z, default_registry());
    if (!err) err = router.initialize();
    if (!err) err = router.install_tasks();
    EXPECT_FALSE(err.has_value()) << to_string(t) << ": " << *err;
    machine.run_until(50000);
    EXPECT_GT(machine.core(0).counters().cycles, 0U) << to_string(t);
  }
}

TEST(Workloads, ChainCompositionFollowsPaper) {
  // MON = IP + FlowStatistics; FW = MON + SeqFirewall; etc. (Section 2.1).
  const WorkloadSizes z = WorkloadSizes::for_scale(Scale::kQuick);
  const auto text = [&z](FlowType t) { return flow_config_text(FlowSpec::of(t), z); };
  EXPECT_EQ(text(FlowType::kIp).find("FlowStatistics"), std::string::npos);
  EXPECT_NE(text(FlowType::kMon).find("FlowStatistics"), std::string::npos);
  EXPECT_NE(text(FlowType::kFw).find("SeqFirewall"), std::string::npos);
  EXPECT_NE(text(FlowType::kFw).find("FlowStatistics"), std::string::npos);
  EXPECT_NE(text(FlowType::kRe).find("RedundancyElim"), std::string::npos);
  EXPECT_NE(text(FlowType::kVpn).find("VpnEncrypt"), std::string::npos);
  // SYN_MAX is the 64-read competitor, whatever FlowSpec::syn holds.
  EXPECT_NE(text(FlowType::kSynMax).find("READS 64"), std::string::npos);
}

TEST(Workloads, DefaultRegistryKnowsAllClasses) {
  const click::Registry& r = default_registry();
  for (const char* cls :
       {"FromDevice", "ToDevice", "CheckIPHeader", "DecIPTTL", "RadixIPLookup",
        "FlowStatistics", "SeqFirewall", "RedundancyElim", "VpnEncrypt", "SynSource",
        "SynProcessor", "Queue", "Unqueue", "ControlShim"}) {
    EXPECT_TRUE(r.knows(cls)) << cls;
  }
}

}  // namespace
}  // namespace pp::core

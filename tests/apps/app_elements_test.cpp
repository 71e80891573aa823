// Integration tests of the application elements inside router graphs.
#include <gtest/gtest.h>

#include "apps/elements.hpp"
#include "click/elements_basic.hpp"
#include "click/elements_io.hpp"
#include "click/parser.hpp"
#include "core/workloads.hpp"
#include "net/headers.hpp"
#include "net/traffic.hpp"
#include "sim/machine.hpp"

namespace pp::apps {
namespace {

using click::Router;

class AppElementTest : public ::testing::Test {
 protected:
  sim::Machine machine_;

  std::unique_ptr<Router> build(const std::string& config) {
    auto router = std::make_unique<Router>(machine_, 0, 0, 1);
    auto err = click::parse_config(config, core::default_registry(), *router);
    if (!err) err = router->initialize();
    if (!err) err = router->install_tasks();
    EXPECT_FALSE(err.has_value()) << (err ? *err : "");
    return router;
  }
};

TEST_F(AppElementTest, IpChainForwardsAndDecrementsTtl) {
  auto router = build(R"(
    src :: FromDevice(RANDOM, BYTES 64, SEED 5, BUFS 64);
    chk :: CheckIPHeader;
    lkp :: RadixIPLookup(PREFIXES 2000, SEED 9);
    ttl :: DecIPTTL;
    out :: ToDevice;
    src -> chk -> lkp -> ttl -> out;
  )");
  machine_.run_until(500000);
  EXPECT_GT(machine_.core(0).counters().packets, 100U);
  EXPECT_EQ(machine_.core(0).counters().drops, 0U);
}

TEST_F(AppElementTest, RadixIPLookupAnnotatesOutputPort) {
  auto router = build(R"(
    src :: FromDevice(FLOWPOOL, BYTES 64, POOL 64, SEED 5, BUFS 64);
    lkp :: RadixIPLookup(PREFIXES 500, SEED 9);
    out :: ToDevice;
    src -> lkp -> out;
  )");
  machine_.run_until(200000);
  // Cross-check a lookup against the element's own trie.
  auto* lkp = dynamic_cast<RadixIPLookup*>(router->find("lkp"));
  ASSERT_NE(lkp, nullptr);
  EXPECT_GE(lkp->trie().route_count(), 500U);
  EXPECT_EQ(lkp->trie().lookup(0), lkp->trie().lookup(0));
}

TEST_F(AppElementTest, FlowStatisticsTracksPoolFlows) {
  auto router = build(R"(
    src :: FromDevice(FLOWPOOL, BYTES 64, POOL 128, SEED 5, BUFS 64);
    stats :: FlowStatistics(BUCKETS 1024);
    out :: ToDevice;
    src -> stats -> out;
  )");
  machine_.run_until(2000000);
  auto* stats = dynamic_cast<FlowStatistics*>(router->find("stats"));
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->table().size(), 100U);   // nearly all 128 flows seen
  EXPECT_LE(stats->table().size(), 128U);
  EXPECT_EQ(stats->table_full_events(), 0U);
  // Total accounted packets equal transmitted packets.
  std::uint64_t accounted = 0;
  // (Sum over all records via expire with impossible cutoffs.)
  auto& table = const_cast<FlowTable&>(stats->table());
  (void)table.expire(~0ULL, ~0ULL, [&](const FlowRecord& r) { accounted += r.packets; });
  EXPECT_EQ(accounted, machine_.core(0).counters().packets);
}

TEST_F(AppElementTest, FirewallDropsNothingForCraftedTraffic) {
  // The paper's FW traffic never matches: all packets survive the scan.
  auto router = build(R"(
    src :: FromDevice(FLOWPOOL, BYTES 64, POOL 64, SEED 5, BUFS 64);
    fw :: SeqFirewall(RULES 100, SEED 1);
    out :: ToDevice;
    src -> fw -> out;
    fw [1] -> Discard;
  )");
  machine_.run_until(2000000);
  auto* fw = dynamic_cast<SeqFirewall*>(router->find("fw"));
  ASSERT_NE(fw, nullptr);
  EXPECT_EQ(fw->matched(), 0U);
  EXPECT_GT(machine_.core(0).counters().packets, 10U);
}

TEST_F(AppElementTest, FirewallDropsMatchingTraffic) {
  // Low-dst traffic (high bit clear) lands inside the rule space; with
  // enough rules some packets must match and be dropped.
  auto router = std::make_unique<Router>(machine_, 0, 0, 1);
  auto err = click::parse_config(R"(
    src :: FromDevice(RANDOM, BYTES 64, SEED 5, BUFS 64);
    fw :: SeqFirewall(RULES 2000, SEED 1);
    out :: ToDevice;
    src -> fw -> out;
  )", core::default_registry(), *router);
  ASSERT_FALSE(err.has_value()) << *err;
  // Replace the source traffic with low-address destinations.
  auto* src = dynamic_cast<click::FromDevice*>(router->find("src"));
  ASSERT_NE(src, nullptr);
  src->set_source(std::make_unique<net::RandomTraffic>(64, 5, /*dst_high_bit=*/false));
  ASSERT_FALSE(router->initialize().has_value());
  ASSERT_FALSE(router->install_tasks().has_value());
  machine_.run_until(4000000);
  auto* fw = dynamic_cast<SeqFirewall*>(router->find("fw"));
  EXPECT_GT(fw->matched(), 0U);
  EXPECT_EQ(machine_.core(0).counters().drops, fw->matched());
}

TEST_F(AppElementTest, VpnChargesAesCostPerPacket) {
  auto router = build(R"(
    src :: FromDevice(FLOWPOOL, BYTES 256, POOL 16, SEED 5, BUFS 64);
    vpn :: VpnEncrypt;
    out :: ToDevice;
    src -> vpn -> out;
  )");
  machine_.run_until(300000);
  EXPECT_GT(machine_.core(0).counters().packets, 5U);
  // The AES cost model shows up as instructions attributed to the element.
  EXPECT_GT(router->find("vpn")->stats().instructions, 1000U);
}

TEST_F(AppElementTest, RedundancyElimShrinksRedundantTraffic) {
  auto router = build(R"(
    src :: FromDevice(CONTENT, BYTES 1500, SEED 5, RED 0.8, BUFS 64);
    re :: RedundancyElim(STORE_MB 1, TABLE_SLOTS 16384);
    out :: ToDevice;
    src -> re -> out;
  )");
  machine_.run_until(8000000);
  auto* re = dynamic_cast<RedundancyElim*>(router->find("re"));
  ASSERT_NE(re, nullptr);
  EXPECT_GT(re->re_stats().matches, 0U);
  EXPECT_GT(re->re_stats().savings(), 0.2);
}

TEST_F(AppElementTest, SynProcessorHiddenModeSwitch) {
  auto router = build(R"(
    src :: FromDevice(RANDOM, BYTES 64, SEED 5, BUFS 64);
    syn :: SynProcessor(READS 1, INSTR 50, ALT_READS 32, ALT_INSTR 0, TRIG_AFTER 100, TABLE_MB 1);
    out :: ToDevice;
    src -> syn -> out;
  )");
  auto* syn = dynamic_cast<SynProcessor*>(router->find("syn"));
  ASSERT_NE(syn, nullptr);
  EXPECT_FALSE(syn->triggered());
  machine_.run_until(2000000);
  EXPECT_TRUE(syn->triggered());  // flipped to aggressive mode mid-run
}

TEST_F(AppElementTest, SynSourceGeneratesMemoryTraffic) {
  auto router = build("syn :: SynSource(READS 8, INSTR 100, TABLE_MB 2);");
  machine_.run_until(100000);
  const auto& c = machine_.core(0).counters();
  EXPECT_GT(c.packets, 0U);  // batches counted as work units
  EXPECT_GT(c.l3_refs, 100U);
}

TEST_F(AppElementTest, ElementStatsAttributePerStage) {
  auto router = build(R"(
    src :: FromDevice(RANDOM, BYTES 64, SEED 5, BUFS 64);
    chk :: CheckIPHeader;
    lkp :: RadixIPLookup(PREFIXES 2000, SEED 9);
    out :: ToDevice;
    src -> chk -> lkp -> out;
  )");
  machine_.run_until(400000);
  const auto& lkp_stats = router->find("lkp")->stats();
  const auto& chk_stats = router->find("chk")->stats();
  EXPECT_GT(lkp_stats.cycles, chk_stats.cycles);  // trie walk dominates
  EXPECT_GT(lkp_stats.l1_hits + lkp_stats.l1_misses, 0U);
}

}  // namespace
}  // namespace pp::apps

#include <gtest/gtest.h>

#include "click/elements_basic.hpp"
#include "click/elements_io.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"
#include "net/traffic.hpp"
#include "sim/machine.hpp"

namespace pp::click {
namespace {

/// Test sink that records packets it receives (and recycles them).
class Sink final : public Element {
 public:
  [[nodiscard]] std::string_view class_name() const override { return "Sink"; }
  [[nodiscard]] int n_outputs() const override { return 0; }

  std::vector<std::vector<std::uint8_t>> packets;

 protected:
  void do_push(Context& cx, int, net::PacketBuf* p) override {
    packets.emplace_back(p->bytes.begin(), p->bytes.begin() + p->len);
    net::recycle(cx.core, p);
  }
};

class ElementTest : public ::testing::Test {
 protected:
  ElementTest() : pool_(machine_.address_space(), 0, 0, 32, 256) {}

  net::PacketBuf* make_packet(const net::FiveTuple& t, std::uint32_t payload = 16) {
    net::PacketBuf* p = pool_.alloc(machine_.core(0));
    p->len = net::build_udp_packet({p->bytes.data(), p->bytes.size()}, t, payload);
    return p;
  }

  ElementEnv env() {
    ElementEnv e;
    e.machine = &machine_;
    e.numa_domain = 0;
    e.core = 0;
    e.seed = 1;
    return e;
  }

  sim::Machine machine_;
  net::BufferPool pool_;
};

TEST_F(ElementTest, CheckIPHeaderPassesValid) {
  CheckIPHeader chk;
  Sink sink;
  chk.connect_output(0, &sink, 0);
  Context cx{machine_.core(0)};
  chk.push(cx, 0, make_packet({1, 2, 3, 4, net::kProtoUdp}));
  EXPECT_EQ(sink.packets.size(), 1U);
}

TEST_F(ElementTest, CheckIPHeaderDropsCorrupt) {
  CheckIPHeader chk;
  Sink sink;
  chk.connect_output(0, &sink, 0);
  Context cx{machine_.core(0)};
  net::PacketBuf* p = make_packet({1, 2, 3, 4, net::kProtoUdp});
  p->bytes[p->l3_offset + 10] ^= 0xff;  // corrupt checksum
  chk.push(cx, 0, p);
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_EQ(machine_.core(0).counters().drops, 1U);
  EXPECT_EQ(pool_.available(), 32U);  // recycled
}

TEST_F(ElementTest, CheckIPHeaderRoutesBadToPort1) {
  CheckIPHeader chk;
  Sink good;
  Sink bad;
  chk.connect_output(0, &good, 0);
  chk.connect_output(1, &bad, 0);
  Context cx{machine_.core(0)};
  net::PacketBuf* p = make_packet({1, 2, 3, 4, net::kProtoUdp});
  p->bytes[p->l3_offset] = 0x65;  // version 6
  chk.push(cx, 0, p);
  EXPECT_TRUE(good.packets.empty());
  EXPECT_EQ(bad.packets.size(), 1U);
}

TEST_F(ElementTest, DecIPTTLDecrementsAndChecksumStaysValid) {
  DecIPTTL ttl;
  Sink sink;
  ttl.connect_output(0, &sink, 0);
  Context cx{machine_.core(0)};
  ttl.push(cx, 0, make_packet({1, 2, 3, 4, net::kProtoUdp}));
  ASSERT_EQ(sink.packets.size(), 1U);
  const auto& bytes = sink.packets[0];
  const std::span<const std::uint8_t> l3{bytes.data() + 14, bytes.size() - 14};
  EXPECT_EQ(l3[8], 63);  // TTL decremented from 64
  EXPECT_TRUE(net::checksum_ok(l3.first(20)));
}

TEST_F(ElementTest, DecIPTTLDropsExpired) {
  DecIPTTL ttl;
  Sink sink;
  ttl.connect_output(0, &sink, 0);
  Context cx{machine_.core(0)};
  net::PacketBuf* p = make_packet({1, 2, 3, 4, net::kProtoUdp});
  // Rewrite header with TTL 1.
  net::Ipv4Fields f = net::decode_ipv4(p->l3());
  f.ttl = 1;
  net::encode_ipv4(f, p->l3());
  ttl.push(cx, 0, p);
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_EQ(machine_.core(0).counters().drops, 1U);
}

TEST_F(ElementTest, CounterCountsPacketsAndBytes) {
  Counter cnt;
  ElementEnv e = env();
  ASSERT_FALSE(cnt.initialize(e).has_value());
  Sink sink;
  cnt.connect_output(0, &sink, 0);
  Context cx{machine_.core(0)};
  cnt.push(cx, 0, make_packet({1, 2, 3, 4, net::kProtoUdp}, 10));
  cnt.push(cx, 0, make_packet({1, 2, 3, 4, net::kProtoUdp}, 20));
  EXPECT_EQ(cnt.count(), 2U);
  EXPECT_EQ(cnt.byte_count(), (42U + 10) + (42U + 20));
}

TEST_F(ElementTest, DiscardRecycles) {
  Discard d;
  Context cx{machine_.core(0)};
  d.push(cx, 0, make_packet({1, 2, 3, 4, net::kProtoUdp}));
  EXPECT_EQ(pool_.available(), 32U);
  EXPECT_EQ(machine_.core(0).counters().drops, 1U);
}

TEST_F(ElementTest, ControlShimBurnsConfiguredInstructions) {
  ControlShim shim;
  ElementEnv e = env();
  ASSERT_FALSE(shim.configure({"INSTR 1000"}, e).has_value());
  Sink sink;
  shim.connect_output(0, &sink, 0);
  Context cx{machine_.core(0)};
  const std::uint64_t before = machine_.core(0).counters().instructions;
  shim.push(cx, 0, make_packet({1, 2, 3, 4, net::kProtoUdp}));
  EXPECT_GE(machine_.core(0).counters().instructions - before, 1000U);
  shim.set_extra_instr(0);
  const std::uint64_t mid = machine_.core(0).counters().instructions;
  shim.push(cx, 0, make_packet({1, 2, 3, 4, net::kProtoUdp}));
  EXPECT_LT(machine_.core(0).counters().instructions - mid, 100U);
}

TEST_F(ElementTest, UnconnectedOutputActsAsDiscard) {
  CheckIPHeader chk;  // no outputs connected
  Context cx{machine_.core(0)};
  chk.push(cx, 0, make_packet({1, 2, 3, 4, net::kProtoUdp}));
  EXPECT_EQ(pool_.available(), 32U);
}

}  // namespace
}  // namespace pp::click

#include "click/elements_basic.hpp"

#include "click/args.hpp"
#include "net/headers.hpp"

namespace pp::click {

namespace {
constexpr std::uint64_t kCheckHeaderInstr = 120;
constexpr std::uint64_t kDecTtlInstr = 40;
constexpr std::uint64_t kCounterInstr = 4;
}  // namespace

bool CheckIPHeader::check_one(Context& cx, net::PacketBuf* p) {
  sim::Core& core = cx.core;
  // First touch of the packet in this flow: the header line (compulsory
  // miss after NIC DMA).
  core.load(p->sim_addr(p->l3_offset));
  core.compute(kCheckHeaderInstr);
  if (net::validate_ipv4(p->l3()).has_value()) {
    core.count_drop();
    if (output_connected(1)) {
      output(cx, 1, p);
    } else {
      net::recycle(core, p);
    }
    return false;
  }
  return true;
}

void CheckIPHeader::do_push(Context& cx, int port, net::PacketBuf* p) {
  (void)port;
  if (check_one(cx, p)) output(cx, 0, p);
}

void CheckIPHeader::do_push_batch(Context& cx, int port, net::PacketBuf** ps, int n) {
  (void)port;
  net::PacketBuf* good[kMaxBatch];
  int ngood = 0;
  for (int i = 0; i < n; ++i) {
    if (check_one(cx, ps[i])) good[ngood++] = ps[i];
  }
  output_batch(cx, 0, good, ngood);
}

bool DecIPTTL::dec_one(Context& cx, net::PacketBuf* p) {
  sim::Core& core = cx.core;
  core.compute(kDecTtlInstr);
  const bool alive = net::dec_ttl_in_place(p->l3());
  core.store(p->sim_addr(p->l3_offset));  // modified TTL + checksum
  if (!alive) {
    core.count_drop();
    if (output_connected(1)) {
      output(cx, 1, p);
    } else {
      net::recycle(core, p);
    }
    return false;
  }
  return true;
}

void DecIPTTL::do_push(Context& cx, int port, net::PacketBuf* p) {
  (void)port;
  if (dec_one(cx, p)) output(cx, 0, p);
}

void DecIPTTL::do_push_batch(Context& cx, int port, net::PacketBuf** ps, int n) {
  (void)port;
  net::PacketBuf* alive_ps[kMaxBatch];
  int nalive = 0;
  for (int i = 0; i < n; ++i) {
    if (dec_one(cx, ps[i])) alive_ps[nalive++] = ps[i];
  }
  output_batch(cx, 0, alive_ps, nalive);
}

std::optional<std::string> Counter::initialize(ElementEnv& env) {
  line_ = env.machine->address_space().alloc(sim::kLineBytes, env.numa_domain, sim::kLineBytes);
  return std::nullopt;
}

void Counter::do_push(Context& cx, int port, net::PacketBuf* p) {
  (void)port;
  count_ += 1;
  byte_count_ += p->len;
  cx.core.load(line_);
  cx.core.store(line_);
  cx.core.compute(kCounterInstr);
  output(cx, 0, p);
}

void Discard::do_push(Context& cx, int port, net::PacketBuf* p) {
  (void)port;
  cx.core.count_drop();
  net::recycle(cx.core, p);
}

void Discard::do_push_batch(Context& cx, int port, net::PacketBuf** ps, int n) {
  (void)port;
  cx.core.count_drops(static_cast<std::uint64_t>(n));
  net::recycle_batch(cx.core, ps, static_cast<std::size_t>(n));
}

std::optional<std::string> ControlShim::configure(const std::vector<std::string>& args,
                                                  ElementEnv& env) {
  (void)env;
  Args a(args);
  extra_instr_ = a.get_u64("INSTR", 0);
  return a.finish();
}

void ControlShim::do_push(Context& cx, int port, net::PacketBuf* p) {
  (void)port;
  if (extra_instr_ > 0) cx.core.compute(extra_instr_);
  output(cx, 0, p);
}

}  // namespace pp::click

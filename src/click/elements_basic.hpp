// Basic packet-processing elements: header validation, TTL, counting,
// classification, duplication, discard, and the ControlShim used by the
// aggressiveness-throttling mechanism of Section 4.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "click/element.hpp"
#include "sim/address_space.hpp"

namespace pp::click {

/// Validates the IPv4 header (version, IHL, lengths, checksum) — the
/// paper's "check_ip_header" function in Figure 7. Bad packets go to
/// output 1 if connected, otherwise they are dropped.
class CheckIPHeader final : public Element {
 public:
  [[nodiscard]] std::string_view class_name() const override { return "CheckIPHeader"; }
  [[nodiscard]] int n_outputs() const override { return 2; }

 protected:
  void do_push(Context& cx, int port, net::PacketBuf* p) override;
  void do_push_batch(Context& cx, int port, net::PacketBuf** ps, int n) override;

 private:
  /// Charge + validate one packet. Returns true when the packet should
  /// continue on output 0; false when it was routed to output 1 / recycled.
  bool check_one(Context& cx, net::PacketBuf* p);
};

/// Decrements TTL and incrementally updates the checksum (RFC 1624);
/// expired packets are dropped (output 1 if connected).
class DecIPTTL final : public Element {
 public:
  [[nodiscard]] std::string_view class_name() const override { return "DecIPTTL"; }
  [[nodiscard]] int n_outputs() const override { return 2; }

 protected:
  void do_push(Context& cx, int port, net::PacketBuf* p) override;
  void do_push_batch(Context& cx, int port, net::PacketBuf** ps, int n) override;

 private:
  /// Charge + decrement one packet. Returns true when the packet is still
  /// alive (continue on output 0); false when it was routed / recycled.
  bool dec_one(Context& cx, net::PacketBuf* p);
};

/// Packet/byte counter with a simulated counter line (hot, per-flow).
class Counter final : public Element {
 public:
  [[nodiscard]] std::string_view class_name() const override { return "Counter"; }
  [[nodiscard]] std::optional<std::string> initialize(ElementEnv& env) override;

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t byte_count() const { return byte_count_; }

 protected:
  void do_push(Context& cx, int port, net::PacketBuf* p) override;

 private:
  std::uint64_t count_ = 0;
  std::uint64_t byte_count_ = 0;
  sim::Addr line_ = 0;
};

/// Drops everything (and recycles the buffers).
class Discard final : public Element {
 public:
  [[nodiscard]] std::string_view class_name() const override { return "Discard"; }
  [[nodiscard]] int n_outputs() const override { return 0; }

 protected:
  void do_push(Context& cx, int port, net::PacketBuf* p) override;
  void do_push_batch(Context& cx, int port, net::PacketBuf** ps, int n) override;
};

/// The paper's "control element" (Section 4, containing hidden
/// aggressiveness): performs a configurable number of plain CPU operations
/// per packet. The aggressiveness monitor raises `extra_instr` to slow a
/// flow down until its memory-access rate returns to its profiled envelope.
class ControlShim final : public Element {
 public:
  [[nodiscard]] std::string_view class_name() const override { return "ControlShim"; }
  [[nodiscard]] std::optional<std::string> configure(const std::vector<std::string>& args,
                                                     ElementEnv& env) override;

  void set_extra_instr(std::uint64_t n) { extra_instr_ = n; }
  [[nodiscard]] std::uint64_t extra_instr() const { return extra_instr_; }

 protected:
  void do_push(Context& cx, int port, net::PacketBuf* p) override;

 private:
  std::uint64_t extra_instr_ = 0;
};

}  // namespace pp::click

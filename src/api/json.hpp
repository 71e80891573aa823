// Minimal JSON document model: the one reader for every JSON document the
// repo takes in — experiment-spec files, ppd request envelopes and the
// ProfileStore cache files (core/profile_store.cpp).
//
// It covers objects (insertion-ordered, duplicate keys rejected), arrays,
// strings with the basic escapes, signed integers (exact over the u64
// range), fractional numbers, booleans and null. Parsing is strict —
// trailing garbage, NaN/Infinity, comments and unknown escapes are errors —
// because a spec that does not parse cleanly must be rejected loudly, never
// half-applied (see docs/api.md), and a cache file that does not parse is
// quarantined, never half-loaded (docs/robustness.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pp::api {

class Json {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, Json>;

  Json() = default;

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }

  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_double() const;

  /// True when the number was written without fraction/exponent and fits the
  /// target; out-params are untouched on failure.
  [[nodiscard]] bool as_u64(std::uint64_t& out) const;
  [[nodiscard]] bool as_i64(std::int64_t& out) const;

  [[nodiscard]] const std::vector<Json>& items() const { return items_; }
  [[nodiscard]] const std::vector<Member>& members() const { return members_; }

  /// Object field lookup (nullptr when absent or not an object).
  [[nodiscard]] const Json* find(const std::string& key) const;

  /// Strict parse of a complete document. On failure returns nullopt and
  /// fills `error` (when non-null) with a message that names the offset.
  [[nodiscard]] static std::optional<Json> parse(const std::string& text,
                                                 std::string* error = nullptr);

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  // Numbers keep integer magnitude + sign exactly (u64 range) and fall back
  // to double for fractional/exponent forms.
  bool is_int_ = false;
  bool negative_ = false;
  std::uint64_t magnitude_ = 0;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> items_;
  std::vector<Member> members_;
};

/// Escape a string for embedding in emitted JSON ("..." quoting included).
[[nodiscard]] std::string json_quote(const std::string& s);

/// Shortest-round-trip rendering of a double for emitted JSON (never NaN or
/// Infinity — callers must guard; degenerate ratios are defined to be 0).
[[nodiscard]] std::string json_double(double v);

}  // namespace pp::api

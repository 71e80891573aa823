#include "api/json.hpp"

#include <cmath>
#include <limits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/strings.hpp"

namespace pp::api {

double Json::as_double() const {
  if (is_int_) {
    const double m = static_cast<double>(magnitude_);
    return negative_ ? -m : m;
  }
  return num_;
}

bool Json::as_u64(std::uint64_t& out) const {
  if (type_ != Type::kNumber || !is_int_ || negative_) return false;
  out = magnitude_;
  return true;
}

bool Json::as_i64(std::int64_t& out) const {
  if (type_ != Type::kNumber || !is_int_) return false;
  if (negative_) {
    if (magnitude_ > 0x8000000000000000ULL) return false;
    out = magnitude_ == 0x8000000000000000ULL
              ? std::numeric_limits<std::int64_t>::min()
              : -static_cast<std::int64_t>(magnitude_);
    return true;
  }
  if (magnitude_ > 0x7fffffffffffffffULL) return false;
  out = static_cast<std::int64_t>(magnitude_);
  return true;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

// ---------------------------------------------------------------- parsing

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  [[nodiscard]] std::optional<Json> run(std::string* error) {
    Json root;
    if (!value(root, 0)) {
      if (error != nullptr) *error = err_;
      return std::nullopt;
    }
    ws();
    if (pos_ != s_.size()) {
      if (error != nullptr) *error = at("trailing content after document");
      return std::nullopt;
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 32;

  [[nodiscard]] std::string at(const std::string& msg) {
    return msg + strformat(" (offset %zu)", pos_);
  }
  bool fail(const std::string& msg) {
    if (err_.empty()) err_ = at(msg);
    return false;
  }

  void ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected string");
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return fail("control character in string");
      if (c == '\\') {
        if (++pos_ >= s_.size()) return fail("unterminated escape");
        switch (s_[pos_]) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u': {
            // Only the \u00XX range json_quote emits (single bytes); full
            // surrogate/UTF-8 handling is deliberately out of scope.
            if (pos_ + 4 >= s_.size()) return fail("unterminated \\u escape");
            unsigned v = 0;
            for (int k = 1; k <= 4; ++k) {
              const char h = s_[pos_ + static_cast<std::size_t>(k)];
              v <<= 4U;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("invalid \\u escape");
            }
            if (v > 0xff) return fail("\\u escapes above 00ff are unsupported");
            c = static_cast<char>(v);
            pos_ += 4;
            break;
          }
          default:
            return fail("unsupported escape sequence");
        }
      }
      out += c;
      ++pos_;
    }
    if (pos_ >= s_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool number(Json& out) {
    const std::size_t start = pos_;
    bool negative = false;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      negative = true;
      ++pos_;
    }
    std::size_t digits = 0;
    std::uint64_t mag = 0;
    bool overflow = false;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      const std::uint64_t d = static_cast<std::uint64_t>(s_[pos_] - '0');
      if (mag > (~std::uint64_t{0} - d) / 10) overflow = true;
      mag = mag * 10 + d;
      ++digits;
      ++pos_;
    }
    if (digits == 0) return fail("expected digits in number");
    if (digits > 1 && s_[start + (negative ? 1U : 0U)] == '0') {
      return fail("leading zeros are not valid JSON");
    }
    bool fractional = false;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      fractional = true;
      ++pos_;
      std::size_t fdigits = 0;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
        ++fdigits;
        ++pos_;
      }
      if (fdigits == 0) return fail("expected digits after decimal point");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      fractional = true;
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      std::size_t edigits = 0;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
        ++edigits;
        ++pos_;
      }
      if (edigits == 0) return fail("expected digits in exponent");
    }
    out.type_ = Json::Type::kNumber;
    out.is_int_ = !fractional && !overflow;
    out.negative_ = negative;
    out.magnitude_ = mag;
    if (out.is_int_) return true;  // as_double() reads the exact magnitude
    const std::string text = s_.substr(start, pos_ - start);
    out.num_ = std::strtod(text.c_str(), nullptr);
    if (!std::isfinite(out.num_)) return fail("number out of range");
    return true;
  }

  bool value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("document nested too deeply");
    ws();
    if (pos_ >= s_.size()) return fail("unexpected end of document");
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out.type_ = Json::Type::kObject;
      ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        ws();
        std::string key;
        if (!string(key)) return false;
        for (const Json::Member& m : out.members_) {
          if (m.first == key) return fail("duplicate object key \"" + key + "\"");
        }
        ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':' after key");
        ++pos_;
        Json child;
        if (!value(child, depth + 1)) return false;
        out.members_.emplace_back(std::move(key), std::move(child));
        ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or '}' in object");
      }
    }
    if (c == '[') {
      ++pos_;
      out.type_ = Json::Type::kArray;
      ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        Json child;
        if (!value(child, depth + 1)) return false;
        out.items_.push_back(std::move(child));
        ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or ']' in array");
      }
    }
    if (c == '"') {
      out.type_ = Json::Type::kString;
      return string(out.str_);
    }
    if (c == 't') {
      if (!literal("true")) return fail("invalid literal");
      out.type_ = Json::Type::kBool;
      out.bool_ = true;
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return fail("invalid literal");
      out.type_ = Json::Type::kBool;
      out.bool_ = false;
      return true;
    }
    if (c == 'n') {
      if (!literal("null")) return fail("invalid literal");
      out.type_ = Json::Type::kNull;
      return true;
    }
    if (c == '-' || (c >= '0' && c <= '9')) return number(out);
    return fail("unexpected character");
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string err_;
};

std::optional<Json> Json::parse(const std::string& text, std::string* error) {
  return JsonParser(text).run(error);
}

// ---------------------------------------------------------------- emitting

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Remaining control characters: \u00XX, so the emitted text stays
          // valid JSON our own strict parser re-reads (round-trip holds for
          // any programmatically built name).
          out += strformat("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_double(double v) {
  // %.17g round-trips every finite double through strtod exactly; emit a
  // trailing ".0" for integral values so the field reads as a number with a
  // fractional form (and re-parses as double, not integer).
  std::string s = strformat("%.17g", v);
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
    s += ".0";
  }
  return s;
}

}  // namespace pp::api

// A small JSON value type with serializer and recursive-descent parser.
//
// LISA uses JSON at two boundaries that the paper fixes to JSON explicitly:
// the mock-LLM output format of Listing 1 (semantics proposals) and the
// report artifacts consumed by CI dashboards. The subset implemented is
// standard JSON minus \uXXXX escapes outside the BMP; numbers are kept as
// int64 or double.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace lisa::support {

class Json;
using JsonArray = std::vector<Json>;
// std::map keeps object keys ordered, which makes serialized reports stable
// across runs — a property the golden-file tests rely on.
using JsonObject = std::map<std::string, Json>;

/// Error thrown by Json::parse on malformed input.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(std::string message, std::size_t offset)
      : std::runtime_error(std::move(message)), offset_(offset) {}
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// Immutable-ish JSON value; cheap to copy for the sizes LISA handles.
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(std::int64_t i) : value_(i) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(std::size_t i) : value_(static_cast<std::int64_t>(i)) {}
  Json(double d) : value_(d) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
  [[nodiscard]] bool is_double() const { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  /// A double outside int64's range saturates and NaN reads 0: casting
  /// either would be undefined behaviour, and a loaded file may hold any
  /// number where an integer belongs.
  [[nodiscard]] std::int64_t as_int() const {
    if (!is_double()) return std::get<std::int64_t>(value_);
    const double d = std::get<double>(value_);
    if (std::isnan(d)) return 0;
    if (d >= 0x1p63) return std::numeric_limits<std::int64_t>::max();
    if (d < -0x1p63) return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(d);
  }
  [[nodiscard]] double as_double() const {
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
    return std::get<double>(value_);
  }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(value_); }
  [[nodiscard]] const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  [[nodiscard]] JsonArray& as_array() { return std::get<JsonArray>(value_); }
  [[nodiscard]] const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  [[nodiscard]] JsonObject& as_object() { return std::get<JsonObject>(value_); }

  /// Object member access; throws std::out_of_range if missing.
  [[nodiscard]] const Json& at(const std::string& key) const { return as_object().at(key); }
  /// True if this is an object containing `key`.
  [[nodiscard]] bool has(const std::string& key) const {
    return is_object() && as_object().count(key) > 0;
  }
  /// Object member access with a default when the key is absent.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback = "") const {
    if (!has(key) || !at(key).is_string()) return fallback;
    return at(key).as_string();
  }
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback = 0) const {
    if (!has(key) || !at(key).is_number()) return fallback;
    return at(key).as_int();
  }

  /// Serializes compactly (no whitespace).
  [[nodiscard]] std::string dump() const;
  /// Serializes with two-space indentation.
  [[nodiscard]] std::string pretty() const;

  /// Parses a complete JSON document; trailing garbage is an error.
  [[nodiscard]] static Json parse(std::string_view text);
  /// Deepest array/object nesting `parse` accepts. The parser recurses once
  /// per level, so deeper input throws JsonParseError rather than exhaust
  /// the stack; the deepest line LISA writes (a ledger capture) nests 5.
  static constexpr int kMaxParseDepth = 256;

  friend bool operator==(const Json& a, const Json& b) { return a.value_ == b.value_; }

 private:
  void write(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, JsonArray, JsonObject>
      value_;
};

/// Escapes `text` as a JSON string literal body (no surrounding quotes).
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace lisa::support

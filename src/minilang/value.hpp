// Runtime values for the MiniLang interpreter and concolic engine.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

namespace lisa::minilang {

struct Object;
using ObjectPtr = std::shared_ptr<Object>;

/// MiniLang `int` arithmetic: 64-bit two's complement that wraps on
/// overflow, like Java's `long` (INT64_MAX + 1 is INT64_MIN, and -INT64_MIN
/// is INT64_MIN). Interp and the interval domain's constant folding both
/// use these.
constexpr std::int64_t int_add(std::int64_t a, std::int64_t b) {
  std::int64_t sum = 0;
  __builtin_add_overflow(a, b, &sum);
  return sum;
}
constexpr std::int64_t int_sub(std::int64_t a, std::int64_t b) {
  std::int64_t difference = 0;
  __builtin_sub_overflow(a, b, &difference);
  return difference;
}
constexpr std::int64_t int_mul(std::int64_t a, std::int64_t b) {
  std::int64_t product = 0;
  __builtin_mul_overflow(a, b, &product);
  return product;
}
constexpr std::int64_t int_neg(std::int64_t a) { return int_sub(0, a); }

/// MiniLang `/` and `%` on a non-zero divisor, with Java's answer for the
/// one overflowing pair: INT64_MIN / -1 is INT64_MIN and INT64_MIN % -1 is
/// 0.
constexpr std::int64_t int_div(std::int64_t a, std::int64_t b) {
  return b == -1 ? int_neg(a) : a / b;
}
constexpr std::int64_t int_mod(std::int64_t a, std::int64_t b) { return b == -1 ? 0 : a % b; }

/// A MiniLang runtime value. Reference types (objects, lists, maps) have
/// shared ownership so aliasing behaves like Java references — the semantics
/// the corpus programs were written against.
class Value {
 public:
  using ListPtr = std::shared_ptr<std::vector<Value>>;
  using MapPtr = std::shared_ptr<std::map<std::string, Value>>;

  Value() : data_(std::monostate{}) {}
  static Value null() { return Value(); }
  static Value of_int(std::int64_t v) { return Value(Data(v)); }
  static Value of_bool(bool v) { return Value(Data(v)); }
  static Value of_string(std::string v) { return Value(Data(std::move(v))); }
  static Value of_object(ObjectPtr v) { return Value(Data(std::move(v))); }
  static Value of_list(ListPtr v) { return Value(Data(std::move(v))); }
  static Value of_map(MapPtr v) { return Value(Data(std::move(v))); }
  static Value new_list() { return of_list(std::make_shared<std::vector<Value>>()); }
  static Value new_map() { return of_map(std::make_shared<std::map<std::string, Value>>()); }

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(data_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(data_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<ObjectPtr>(data_); }
  [[nodiscard]] bool is_list() const { return std::holds_alternative<ListPtr>(data_); }
  [[nodiscard]] bool is_map() const { return std::holds_alternative<MapPtr>(data_); }

  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(data_); }
  [[nodiscard]] bool as_bool() const { return std::get<bool>(data_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(data_); }
  [[nodiscard]] const ObjectPtr& as_object() const { return std::get<ObjectPtr>(data_); }
  [[nodiscard]] const ListPtr& as_list() const { return std::get<ListPtr>(data_); }
  [[nodiscard]] const MapPtr& as_map() const { return std::get<MapPtr>(data_); }

  /// Structural equality for scalars; identity for reference types.
  [[nodiscard]] bool equals(const Value& other) const;

  /// Human-readable rendering for print()/logs/test failure messages.
  [[nodiscard]] std::string to_display() const;

 private:
  using Data =
      std::variant<std::monostate, std::int64_t, bool, std::string, ObjectPtr, ListPtr, MapPtr>;
  explicit Value(Data data) : data_(std::move(data)) {}
  Data data_;
};

/// A struct instance. `object_id` is a process-unique identity used by the
/// concolic engine to name symbolic field locations.
struct Object {
  std::string struct_name;
  std::unordered_map<std::string, Value> fields;
  std::uint64_t object_id = 0;
};

}  // namespace lisa::minilang

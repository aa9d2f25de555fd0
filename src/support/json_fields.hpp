// Field lists: each persisted record states its JSON shape once.
//
// A record written to a file and read back declares, in its own namespace,
//   template <class Io> void json_fields(Io& io, Record& record);
// naming each key once, with the member it maps to and when the key is
// omitted. JsonWriter runs the list to build the record's object (through a
// const_cast: it only reads the members) and JsonReader runs it to fill a
// record, so writer and reader cannot drift apart. The reader's one rule:
//   * an absent or mistyped value leaves the member's default;
//   * an integer saturates into the member's type (a double beyond int64's
//     range first saturates as Json::as_int does);
//   * an element of a list or map that is of the wrong type is skipped.
//
// The calls a list makes:
//   io(key, member)                 written always;
//   io(key, member, kOmitEmpty)     written unless empty, zero or false;
//   io(key, member, codec)          written and read through a JsonCodec;
//   io.when(condition, body)        body()'s keys written only when
//                                   condition holds (and always read);
//   io.group(key, condition, body)  a sub-object whose keys, named by
//                                   body(group), map onto this record's
//                                   members; written only when condition
//                                   holds;
//   io.derived(key, value)          written, never read;
//   io.presence(key, flag)          written as flag; reading the enclosing
//                                   object sets flag;
//   io.digest(key, member)          written as the FNV-1a digest of the
//                                   object's other keys, read as a string.
// Member types: bool, integers, double, std::string, Json, std::vector<T>,
// std::map<std::string, T>, and records with field lists. A record is
// written and read, nested or not, only where its field list is visible:
// JsonWriter and JsonReader instantiate it there, so every file that
// handles a record sees the same list. Json objects are std::maps, so a
// list's order does not change the bytes.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"
#include "support/jsonl.hpp"

namespace lisa::support {

/// io(key, member, kOmitEmpty) writes its key unless the member equals its
/// value-initialized default (empty, zero or false).
struct OmitEmpty {};
inline constexpr OmitEmpty kOmitEmpty{};

/// A member that the file holds as another type: the key holds
/// encode(member), and a value that reads as a Wire is decoded into it.
template <class T, class Wire>
struct JsonCodec {
  Wire (*encode)(const T&);
  T (*decode)(const Wire&);
};

class JsonReader;

template <class T>
concept FieldListed = requires(JsonReader& reader, T& record) { json_fields(reader, record); };

template <class T>
concept JsonInteger = std::integral<T> && !std::same_as<T, bool>;

class JsonWriter {
 public:
  template <class T>
  void operator()(const char* key, const T& member) {
    object_[key] = value(member);
  }
  template <class T>
  void operator()(const char* key, const T& member, OmitEmpty /*omit*/) {
    if (member != T{}) object_[key] = value(member);
  }
  template <class T, class Wire>
  void operator()(const char* key, const T& member, const JsonCodec<T, Wire>& codec) {
    object_[key] = value(codec.encode(member));
  }
  template <class Body>
  void when(bool condition, Body body) {
    if (condition) body();
  }
  template <class Body>
  void group(const char* key, bool condition, Body body) {
    if (!condition) return;
    JsonWriter sub;
    body(sub);
    object_[key] = sub.take();
  }
  void derived(const char* key, Json value) { object_[key] = std::move(value); }
  void presence(const char* key, bool flag) { object_[key] = flag; }
  void digest(const char* key, const std::string& /*member*/) { digest_key_ = key; }

  /// The object written so far, with its digest when the list names one.
  [[nodiscard]] Json take() {
    Json object(std::move(object_));
    if (digest_key_ != nullptr)
      object.as_object()[digest_key_] = fnv1a_fingerprint(object.dump());
    return object;
  }

  static Json value(bool flag) { return Json(flag); }
  static Json value(double number) { return Json(number); }
  static Json value(const std::string& text) { return Json(text); }
  static Json value(Json json) { return json; }
  template <JsonInteger T>
  static Json value(T number) {
    return Json(static_cast<std::int64_t>(number));
  }
  template <class T>
  static Json value(const std::vector<T>& list) {
    JsonArray array;
    array.reserve(list.size());
    for (const T& element : list) array.push_back(value(element));
    return Json(std::move(array));
  }
  template <class T>
  static Json value(const std::map<std::string, T>& map) {
    JsonObject object;
    for (const auto& [key, element] : map) object[key] = value(element);
    return Json(std::move(object));
  }
  template <FieldListed T>
  static Json value(const T& record) {
    JsonWriter writer;
    json_fields(writer, const_cast<T&>(record));
    return writer.take();
  }

 private:
  JsonObject object_;
  const char* digest_key_ = nullptr;
};

class JsonReader {
 public:
  explicit JsonReader(const Json& object) : object_(object) {}

  template <class T>
  void operator()(const char* key, T& member, OmitEmpty /*omit*/ = {}) {
    if (const Json* found = find(key)) (void)read(*found, member);
  }
  template <class T, class Wire>
  void operator()(const char* key, T& member, const JsonCodec<T, Wire>& codec) {
    Wire wire{};
    if (const Json* found = find(key); found != nullptr && read(*found, wire))
      member = codec.decode(wire);
  }
  template <class Body>
  void when(bool /*condition*/, Body body) {
    body();
  }
  template <class Body>
  void group(const char* key, bool /*condition*/, Body body) {
    const Json* found = find(key);
    if (found == nullptr || !found->is_object()) return;
    JsonReader sub(*found);
    body(sub);
  }
  void derived(const char* /*key*/, const Json& /*value*/) {}
  void presence(const char* /*key*/, bool& flag) { flag = true; }
  void digest(const char* key, std::string& member) { (*this)(key, member); }

  /// Reads `json` into `out`; false, leaving `out` as it was, when `json`
  /// is not of `out`'s type.
  static bool read(const Json& json, bool& out) {
    if (!json.is_bool()) return false;
    out = json.as_bool();
    return true;
  }
  static bool read(const Json& json, double& out) {
    if (!json.is_number()) return false;
    out = json.as_double();
    return true;
  }
  static bool read(const Json& json, std::string& out) {
    if (!json.is_string()) return false;
    out = json.as_string();
    return true;
  }
  static bool read(const Json& json, Json& out) {
    out = json;
    return true;
  }
  template <JsonInteger T>
  static bool read(const Json& json, T& out) {
    if (!json.is_number()) return false;
    const std::int64_t number = json.as_int();
    if (std::cmp_less(number, std::numeric_limits<T>::min()))
      out = std::numeric_limits<T>::min();
    else if (std::cmp_greater(number, std::numeric_limits<T>::max()))
      out = std::numeric_limits<T>::max();
    else
      out = static_cast<T>(number);
    return true;
  }
  template <class T>
  static bool read(const Json& json, std::vector<T>& out) {
    if (!json.is_array()) return false;
    std::vector<T> list;
    for (const Json& element : json.as_array()) {
      T item{};
      if (read(element, item)) list.push_back(std::move(item));
    }
    out = std::move(list);
    return true;
  }
  template <class T>
  static bool read(const Json& json, std::map<std::string, T>& out) {
    if (!json.is_object()) return false;
    std::map<std::string, T> map;
    for (const auto& [key, element] : json.as_object()) {
      T item{};
      if (read(element, item)) map.emplace(key, std::move(item));
    }
    out = std::move(map);
    return true;
  }
  template <FieldListed T>
  static bool read(const Json& json, T& out) {
    if (!json.is_object()) return false;
    JsonReader reader(json);
    json_fields(reader, out);
    return true;
  }

 private:
  [[nodiscard]] const Json* find(const char* key) const {
    if (!object_.is_object()) return nullptr;
    const auto it = object_.as_object().find(key);
    return it == object_.as_object().end() ? nullptr : &it->second;
  }

  const Json& object_;
};

/// The JSON object of a record with a field list.
template <FieldListed T>
[[nodiscard]] Json write_record(const T& record) {
  return JsonWriter::value(record);
}

/// The record a JSON object holds; anything but an object reads as the
/// default record.
template <FieldListed T>
[[nodiscard]] T read_record(const Json& json) {
  T record{};
  (void)JsonReader::read(json, record);
  return record;
}

}  // namespace lisa::support

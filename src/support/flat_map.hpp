// A map kept as one vector of (key, value) pairs sorted by key.
//
// Iteration visits keys in std::map's order, and copying a map is one
// allocation (plus any the keys make themselves) instead of one per entry.
// Inserting and erasing one entry move the entries behind it, so it suits
// small maps that are copied far more often than they grow: the dataflow
// states of staticcheck/analyses.hpp. Lookups take any type the key
// compares with by `<`, so a string key can be found by a view.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <utility>
#include <vector>

namespace lisa::support {

template <class Key, class Value>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;
  /// Like std::map's: of entries with equal keys, the first one counts.
  FlatMap(std::initializer_list<value_type> entries) {
    for (const value_type& entry : entries) emplace(entry.first, entry.second);
  }

  [[nodiscard]] iterator begin() { return entries_.begin(); }
  [[nodiscard]] iterator end() { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  template <class K>
  [[nodiscard]] iterator find(const K& key) {
    const iterator it = lower_bound(key);
    return it != end() && !(key < it->first) ? it : end();
  }
  template <class K>
  [[nodiscard]] const_iterator find(const K& key) const {
    const const_iterator it = lower_bound(key);
    return it != end() && !(key < it->first) ? it : end();
  }
  template <class K>
  [[nodiscard]] std::size_t count(const K& key) const {
    return find(key) == end() ? 0 : 1;
  }
  template <class K>
  [[nodiscard]] const Value& at(const K& key) const {
    const const_iterator it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at: no such key");
    return it->second;
  }

  /// The value under `key`, inserted value-initialized when absent.
  template <class K>
  Value& operator[](K&& key) {
    iterator it = lower_bound(key);
    if (it == end() || key < it->first)
      it = entries_.insert(it, value_type(Key(std::forward<K>(key)), Value{}));
    return it->second;
  }

  /// Inserts (key, value) unless `key` is present; never overwrites.
  std::pair<iterator, bool> emplace(const Key& key, Value value) {
    const iterator it = lower_bound(key);
    if (it != end() && !(key < it->first)) return {it, false};
    return {entries_.insert(it, value_type(key, std::move(value))), true};
  }

  template <class K>
  std::size_t erase(const K& key) {
    const iterator it = find(key);
    if (it == end()) return 0;
    entries_.erase(it);
    return 1;
  }

  /// Erases every entry for which `pred(entry)` holds, visiting entries in
  /// key order; `pred` may update the value of an entry it keeps. Returns
  /// the number erased.
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    iterator kept = begin();
    for (iterator it = begin(); it != end(); ++it) {
      if (pred(*it)) continue;
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
    const auto erased = static_cast<std::size_t>(end() - kept);
    entries_.erase(kept, end());
    return erased;
  }

 private:
  template <class K>
  [[nodiscard]] iterator lower_bound(const K& key) {
    return std::lower_bound(begin(), end(), key,
                            [](const value_type& entry, const K& k) { return entry.first < k; });
  }
  template <class K>
  [[nodiscard]] const_iterator lower_bound(const K& key) const {
    return std::lower_bound(begin(), end(), key,
                            [](const value_type& entry, const K& k) { return entry.first < k; });
  }

  std::vector<value_type> entries_;
};

}  // namespace lisa::support

// Sorted flat map: the determinism-safe replacement for lookup-only
// std::unordered_map uses.
//
// Iteration order over an unordered container depends on libstdc++'s hash
// seed, bucket count growth history and insertion order — all invisible
// inputs to any code that later emits what it iterated, which is exactly
// the hazard tlrob-lint rule D1 exists to catch. A FlatMap is built once
// (emplace during construction, then seal()), after which lookups are
// branch-light binary searches over one contiguous array and iteration is
// key-sorted, so emitting it is deterministic by construction. For a
// lookup table built once and probed often (the trace lowering's
// block_of_ip) the dense layout is also the faster structure.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace tlrob {

/// Immutable-after-seal() associative array with std::unordered_map::emplace
/// duplicate semantics (the first insertion of a key wins) and key-sorted,
/// deterministic iteration.
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Buffers one entry. Like unordered_map::emplace, a later duplicate of an
  /// already-inserted key is discarded at seal(). Only valid before seal().
  void emplace(const K& key, const V& value) {
    assert(!sealed_ && "FlatMap: emplace after seal()");
    entries_.emplace_back(key, value);
  }

  /// Sorts by key and drops duplicate keys, keeping the first-inserted entry
  /// (stable sort + unique = unordered_map::emplace semantics). Lookups and
  /// iteration are only valid after sealing.
  void seal() {
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const value_type& a, const value_type& b) { return a.first < b.first; });
    entries_.erase(std::unique(entries_.begin(), entries_.end(),
                               [](const value_type& a, const value_type& b) {
                                 return a.first == b.first;
                               }),
                   entries_.end());
    sealed_ = true;
  }

  /// Pointer to the mapped value, or nullptr when absent.
  const V* find(const K& key) const {
    assert(sealed_ && "FlatMap: find before seal()");
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
    if (it == entries_.end() || it->first != key) return nullptr;
    return &it->second;
  }

  bool contains(const K& key) const { return find(key) != nullptr; }

  bool sealed() const { return sealed_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Key-sorted (deterministic) iteration.
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

 private:
  std::vector<value_type> entries_;
  bool sealed_ = false;
};

}  // namespace tlrob

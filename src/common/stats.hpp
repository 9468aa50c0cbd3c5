// Component statistics as plain counters.
//
// Every simulator component that counts keeps its counters as u64 fields of
// one XxxStats struct (incremented as `++stats_.misses`, reset with
// `stats_ = {}`). Next to the struct, one constexpr table pairs each field
// with its record name; the tables are the counter-name registry, and
// export_stats() writes a struct into RunResult::counters under the
// component's prefix. `static_assert(names_every_field(table))` makes a
// field missing from its table a build error.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tlrob {

/// One counter of a stats struct: the field and its record name (without
/// the component prefix).
template <class S>
struct StatField {
  u64 S::*member;
  const char* name;
};

/// True when `table` names every u64 field of S exactly once. `nested_bytes`
/// is the size of sub-structs S embeds that have tables of their own.
template <class S, std::size_t N>
constexpr bool names_every_field(const std::array<StatField<S>, N>& table,
                                 std::size_t nested_bytes = 0) {
  if (sizeof(S) != N * sizeof(u64) + nested_bytes) return false;
  for (std::size_t i = 0; i < N; ++i)
    for (std::size_t j = i + 1; j < N; ++j)
      if (table[i].member == table[j].member) return false;
  return true;
}

/// Writes every field of `s` as `prefix + name` into `out`.
template <class S, std::size_t N>
void export_stats(std::map<std::string, u64>& out, const std::string& prefix, const S& s,
                  const std::array<StatField<S>, N>& table) {
  for (const StatField<S>& f : table) out[prefix + f.name] = s.*f.member;
}

/// Writes a per-index family (one counter per thread, ...) as
/// `prefix + (first + index)` into `out`.
inline void export_family(std::map<std::string, u64>& out, const std::string& prefix,
                          const std::vector<u64>& values, std::size_t first = 0) {
  for (std::size_t i = 0; i < values.size(); ++i)
    out[prefix + std::to_string(first + i)] = values[i];
}

}  // namespace tlrob

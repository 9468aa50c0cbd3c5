// Enum name tables: one array of rows per enum drives both its name
// function and its parser. A row has at least `value` and `name`; a value's
// first row carries its name, later rows for it are aliases.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace tlrob {

template <typename E>
struct EnumName {
  E value;
  const char* name;
};

/// The first row for `value` (the last row if none matches).
template <typename Row, size_t N>
constexpr const Row& enum_row(const Row (&rows)[N], decltype(Row::value) value) {
  for (const Row& r : rows)
    if (r.value == value) return r;
  return rows[N - 1];
}

/// The value named `text`. Throws std::invalid_argument("unknown <what>:
/// <text> (expected a|b|c)") listing every value's name.
template <typename Row, size_t N>
decltype(Row::value) parse_enum(const Row (&rows)[N], const std::string& text,
                                const char* what) {
  std::string expected;
  for (const Row& r : rows) {
    if (text == r.name) return r.value;
    if (&enum_row(rows, r.value) != &r) continue;  // an alias
    if (!expected.empty()) expected += '|';
    expected += r.name;
  }
  throw std::invalid_argument(std::string("unknown ") + what + ": " + text + " (expected " +
                              expected + ")");
}

}  // namespace tlrob

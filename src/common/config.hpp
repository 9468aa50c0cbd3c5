// Minimal "key=value" option-bag used by benches, examples and tests to
// override experiment parameters from the command line without pulling in a
// flags library.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tlrob {

/// Parses arguments of the form `key=value` (or bare `key`, stored as "1").
/// Unrecognised positional arguments are kept in order and retrievable.
/// Every has()/get*() call records its key as read, so a command line can
/// reject the keys nothing asked for (unread_keys) once it has read all the
/// ones it understands — the getters are the only list of valid keys.
class Options {
 public:
  Options() = default;

  /// Parse from main()'s argv (argv[0] is skipped).
  static Options from_args(int argc, const char* const* argv);

  /// Parse from a pre-split token list.
  static Options from_tokens(const std::vector<std::string>& tokens);

  void set(const std::string& key, const std::string& value) { values_[key] = value; }

  bool has(const std::string& key) const { return find(key) != nullptr; }

  std::string get(const std::string& key, const std::string& fallback = "") const;
  u64 get_u64(const std::string& key, u64 fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated list value ("1,2,5" -> {"1","2","5"}); empty items are
  /// dropped, an absent key yields an empty vector.
  std::vector<std::string> get_list(const std::string& key) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that are set but were never passed to has() or a getter, in
  /// sorted order: typos and flags the program does not know.
  std::vector<std::string> unread_keys() const;

 private:
  /// Looks `key` up and records it as read.
  const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

}  // namespace tlrob

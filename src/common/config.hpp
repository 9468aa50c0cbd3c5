// The command-line option bag every front end parses through (simulate,
// tlrob-campaign, tlrob-mktrace, tlrob-golden, campaign_sweep), plus the
// error contract they share (cli_main). No flags library: one argv grammar,
// documented on from_args.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tlrob {

/// Parses a whole string as an unsigned integer (base 0: decimal, 0x hex, 0
/// octal). Throws std::invalid_argument naming `what` when `text` is empty,
/// signed, has trailing characters or does not fit in 64 bits.
u64 parse_u64(const std::string& text, const std::string& what);
/// parse_u64 that also rejects a value above 2^32-1.
u32 parse_u32(const std::string& text, const std::string& what);

/// Key/value options plus positional arguments. Every has()/get*() call
/// records its key as read, so a command line can reject the keys nothing
/// asked for (require_all_read) once it has read all the ones it
/// understands — the getters are the only list of valid keys. Malformed
/// values throw std::invalid_argument naming the key.
class Options {
 public:
  Options() = default;

  /// Parses main()'s argv (argv[0] is skipped). Accepted forms:
  ///   key=value, --key=value  a value
  ///   --key value             a value, unless `key` is in `flags` or the
  ///                           next token is an option or contains '='
  ///   --key                   a bare flag, stored as "1"
  ///   anything else           positional, kept in order
  /// A lone "-" is a value (stdout for sink paths) or a positional. Dashes
  /// in keys read as underscores (--max-cycles == max_cycles).
  static Options from_args(int argc, const char* const* argv,
                           const std::set<std::string>& flags = {});

  /// Parses a pre-split token list: "key=value" and "--key=value" set a
  /// value, "--key" is a bare flag, anything else is positional.
  static Options from_tokens(const std::vector<std::string>& tokens);

  void set(const std::string& key, const std::string& value) { values_[key] = value; }

  bool has(const std::string& key) const { return find(key) != nullptr; }

  std::string get(const std::string& key, const std::string& fallback = "") const;
  u64 get_u64(const std::string& key, u64 fallback) const;
  /// get_u64 that also rejects a value above 2^32-1.
  u32 get_u32(const std::string& key, u32 fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// Accepts 0/1, true/false, yes/no and on/off.
  bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated list value ("1,2,5" -> {"1","2","5"}); empty items are
  /// dropped, an absent key yields an empty vector.
  std::vector<std::string> get_list(const std::string& key) const;
  /// get_list with every item parsed as by get_u32.
  std::vector<u32> get_u32_list(const std::string& key) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that are set but were never passed to has() or a getter, in
  /// sorted order: typos and flags the program does not know.
  std::vector<std::string> unread_keys() const;

  /// Throws std::invalid_argument("unknown option --<key><note>") for the
  /// first of unread_keys(), if any.
  void require_all_read(const std::string& note = "") const;

 private:
  /// Looks `key` up and records it as read.
  const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

/// The front ends' error contract: runs a main() body and turns any
/// std::exception it throws (a typo, a bad value, a failed run) into
/// "error: <message>" on stderr and exit status 2.
int cli_main(const std::function<int()>& body);

}  // namespace tlrob

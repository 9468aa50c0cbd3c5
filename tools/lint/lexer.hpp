// Token-level C++ scanner for tlrob-lint's portable backend.
//
// This is deliberately not a C++ parser: it splits a translation unit into
// identifiers / numbers / strings / punctuation with line numbers, strips
// comments (harvesting `tlrob-lint:` suppression directives from them) and
// records #include targets. The rule implementations (rules.cpp) pattern-
// match over this token stream — coarse next to a real AST, but dependency-
// free, so the analyzer runs on any toolchain.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tlrob::lint {

struct Token {
  enum class Kind : u8 {
    kIdent,   // identifiers and keywords
    kNumber,  // numeric literals (pp-numbers, near enough)
    kString,  // string literal; text = content without quotes/escapes undone
    kPunct,   // operators/punctuation; "::" and "->" kept as one token
  };

  Kind kind;
  std::string text;
  u32 line;

  bool is_ident(const char* s) const { return kind == Kind::kIdent && text == s; }
  bool is_punct(const char* s) const { return kind == Kind::kPunct && text == s; }
};

/// One scanned source file plus the lint-relevant side channels.
struct LexedFile {
  std::string path;          // as given to lex_file
  std::string display_path;  // root-relative when known (set by the driver)
  std::vector<Token> tokens;

  /// Suppression directives harvested from comments:
  ///   // tlrob-lint: allow(D1,C2) <justification>
  ///   // tlrob-lint: allow-file(D2) <justification>
  /// An allow() applies to the line the comment starts on and the line
  /// after it (so a standalone comment line can cover the statement below);
  /// allow-file() covers the whole file for the named rules.
  std::map<u32, std::vector<std::string>> line_allows;
  std::vector<std::string> file_allows;

  /// #include targets, in order: the header name without <> or "".
  std::vector<std::pair<u32, std::string>> includes;

  /// True when a rule `id` is suppressed at `line`.
  bool allowed(const std::string& id, u32 line) const;
};

/// Scans `text` (the contents of `path`). Never throws on weird input — an
/// unterminated literal just ends the token stream at end-of-file.
LexedFile lex_source(std::string path, const std::string& text);

/// Reads and scans a file. Throws std::runtime_error when unreadable.
LexedFile lex_file(const std::string& path);

}  // namespace tlrob::lint

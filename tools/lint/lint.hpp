// tlrob-lint: the repo's own determinism & concurrency static analyzer.
//
// Everything this repository certifies rests on one property: bit-identical
// golden records across all 16 presets at any --jobs N. The golden
// suite and TSan enforce that property dynamically; tlrob-lint enforces the
// *contracts that make it true* statically, as named rules:
//
//   D1  no iteration over unordered containers in an emission path
//       (stat/fingerprint/JSONL writers): hash-order is an invisible
//       input, so anything emitted from it is nondeterministic.
//   D2  no nondeterminism sources in the simulator core (src/sim, pipeline,
//       rob, memory): rand()/random_device, wall-clock reads, pointer-
//       valued map/set keys (address-order is ASLR-order).
//   C1  every mutex declared in a concurrent module guards something:
//       it must be named by at least one TLROB_GUARDED_BY /
//       TLROB_PT_GUARDED_BY annotation (common/thread_annotations.hpp).
//   C2  no naked .lock()/.unlock() in concurrent modules — a Mutex is held
//       through a scoped MutexLock (RAII) or not at all.
//
// Suppression: `// tlrob-lint: allow(D2) <why>` on (or directly above) the
// offending line; `allow-file(...)` for a whole file. Every suppression is
// a reviewed, justified exception — exactly like a NOLINT.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "lint/lexer.hpp"

namespace tlrob::lint {

struct Finding {
  std::string rule;  // "D1", "D2", "C1", "C2"
  std::string path;  // display (root-relative) path
  u32 line = 0;
  std::string message;

  /// "path:line: [rule] message" — the stable output format.
  std::string format() const;
};

struct LintOptions {
  /// When true, every rule runs on every file regardless of its scope list
  /// (fixture tests use this; the repo run scopes by path).
  bool all_scopes = false;

  /// Rules to run; empty = all.
  std::vector<std::string> rules;

  bool rule_enabled(const std::string& id) const;
};

/// True when `rule` applies to root-relative path `p` (substring scopes).
bool in_scope(const std::string& rule, const std::string& p);

/// Token-level backend: runs every enabled per-file rule over `file`.
std::vector<Finding> run_file_rules(const LexedFile& file, const LintOptions& opts);

/// Translation units listed in a compile_commands.json (absolute paths).
/// Throws std::runtime_error when the database is unreadable or malformed.
std::vector<std::string> compile_db_files(const std::string& db_path);

/// The rule catalogue as "ID  description" lines (for --list-rules and the
/// DESIGN.md §11 doc to stay in sync by eyeball).
std::vector<std::string> rule_catalogue();

}  // namespace tlrob::lint

// Token-level implementations of the tlrob-lint rule catalogue (see
// lint.hpp for the rule list and DESIGN.md §11 for rationale and scope).
//
// These are pattern matchers over the lexer's token stream, written to be
// conservative-but-useful: each one encodes the narrow repo contract it
// polices rather than general C++ semantics, and every scope below names
// the modules the contract covers. False positives are handled with a
// justified `tlrob-lint: allow(...)` directive, never by weakening a rule.

#include <algorithm>
#include <set>
#include <sstream>

#include "lint/lint.hpp"

namespace tlrob::lint {

namespace {

using TokIt = std::vector<Token>::const_iterator;

// ---- rule scopes (root-relative path substrings) ---------------------------

/// D1: emission paths — everything between a RunResult and bytes
/// on disk: records, sinks, golden fingerprints, render tables, the engine
/// (manifest + resume), and the whole observability tree.
const char* const kEmissionScope[] = {
    "src/runner/record", "src/runner/sinks",  "src/runner/golden",
    "src/runner/render", "src/runner/json",   "src/runner/engine",
    "src/obs/",
};

/// D2: the simulated machine. Its only sanctioned entropy is tlrob::Rng
/// seeded from MachineConfig::seed.
const char* const kCoreScope[] = {
    "src/sim/", "src/pipeline/", "src/rob/", "src/memory/",
};

/// C1/C2: the concurrent modules (the shared pool and lock primitives in
/// common/, the campaign engine/emitter/sinks, the single-thread-IPC memo,
/// observability sample sinks). src/sim/cmp is single-threaded today; it
/// stays in scope so any future threading of the CMP machine is held to
/// C1/C2 from its first line.
const char* const kConcurrencyScope[] = {
    "src/common/thread_pool", "src/common/sync", "src/runner/engine",
    "src/runner/sinks",       "src/sim/experiment", "src/sim/cmp",
    "src/obs/",
};

template <size_t N>
bool match_scope(const char* const (&scope)[N], const std::string& p) {
  for (const char* s : scope)
    if (p.find(s) != std::string::npos) return true;
  return false;
}

// ---- small token helpers ---------------------------------------------------

const std::set<std::string> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

const std::set<std::string> kKeyedContainers = {
    "map",           "unordered_map", "set",           "unordered_set",
    "multimap",      "multiset",      "unordered_multimap", "unordered_multiset"};

/// Forbidden-as-type identifiers for D2 (any appearance is a finding).
const std::set<std::string> kNondetTypes = {
    "random_device", "system_clock",        "high_resolution_clock",
    "steady_clock",  "default_random_engine", "mt19937", "mt19937_64",
};

/// Forbidden-as-call identifiers for D2 (finding when followed by '(' and
/// not a member call, so `wheel.time()`-style members don't trip it).
const std::set<std::string> kNondetCalls = {
    "rand", "srand", "rand_r", "drand48", "time", "clock",
    "gettimeofday", "clock_gettime", "getpid",
};

/// Headers whose inclusion in the simulator core is a finding by itself.
const std::set<std::string> kNondetHeaders = {"random", "ctime", "chrono", "time.h",
                                              "sys/time.h"};

/// Advances past a balanced <...> template argument list; `it` points at
/// '<'. Returns the iterator one past the matching '>'. Tolerates shifts by
/// treating every '<'/'>' as angle brackets — good enough for declarations,
/// which is the only place the rules walk template arguments.
TokIt skip_angles(TokIt it, TokIt end) {
  int depth = 0;
  for (; it != end; ++it) {
    if (it->is_punct("<"))
      ++depth;
    else if (it->is_punct(">") && --depth == 0)
      return it + 1;
    else if (it->is_punct(";"))  // malformed / not a template after all
      return it;
  }
  return it;
}

bool prev_is_member_access(TokIt it, TokIt begin) {
  if (it == begin) return false;
  const Token& p = *(it - 1);
  return p.is_punct(".") || p.is_punct("->");
}

void add_finding(std::vector<Finding>& out, const LexedFile& f, const char* rule, u32 line,
                 std::string msg) {
  if (f.allowed(rule, line)) return;
  out.push_back(Finding{rule, f.display_path, line, std::move(msg)});
}

// ---- D1: unordered iteration in emission paths -----------------------------

void rule_d1(const LexedFile& f, std::vector<Finding>& out) {
  // Pass 1: names declared (or returned) with an unordered container type.
  std::set<std::string> unordered_names;
  const auto& ts = f.tokens;
  for (auto it = ts.begin(); it != ts.end(); ++it) {
    if (it->kind != Token::Kind::kIdent || kUnorderedContainers.count(it->text) == 0) continue;
    auto j = it + 1;
    if (j == ts.end() || !j->is_punct("<")) continue;
    j = skip_angles(j, ts.end());
    // Skip declarator decorations between the type and the name.
    while (j != ts.end() &&
           (j->is_punct("&") || j->is_punct("*") || j->is_ident("const") || j->is_punct("::")))
      ++j;
    if (j != ts.end() && j->kind == Token::Kind::kIdent) unordered_names.insert(j->text);
  }

  // Pass 2a: range-for whose range expression mentions a tracked name.
  for (auto it = ts.begin(); it != ts.end(); ++it) {
    if (!it->is_ident("for")) continue;
    auto j = it + 1;
    if (j == ts.end() || !j->is_punct("(")) continue;
    int depth = 0;
    bool in_range_expr = false;
    for (; j != ts.end(); ++j) {
      if (j->is_punct("("))
        ++depth;
      else if (j->is_punct(")") && --depth == 0)
        break;
      else if (j->is_punct(":") && depth == 1)
        in_range_expr = true;
      else if (in_range_expr && j->kind == Token::Kind::kIdent &&
               unordered_names.count(j->text) != 0)
        add_finding(out, f, "D1", it->line,
                    "range-for over unordered container '" + j->text +
                        "' in an emission path: hash-order reaches the output; iterate a "
                        "sorted copy or use a FlatMap/std::map (DESIGN.md §11 D1)");
    }
  }

  // Pass 2b: explicit iterator walks: tracked.begin()/cbegin()/rbegin().
  for (auto it = ts.begin(); it != ts.end(); ++it) {
    if (it->kind != Token::Kind::kIdent || unordered_names.count(it->text) == 0) continue;
    auto j = it + 1;
    if (j == ts.end() || !(j->is_punct(".") || j->is_punct("->"))) continue;
    ++j;
    if (j != ts.end() && j->kind == Token::Kind::kIdent &&
        (j->text == "begin" || j->text == "cbegin" || j->text == "rbegin"))
      add_finding(out, f, "D1", it->line,
                  "iterator over unordered container '" + it->text +
                      "' in an emission path (see DESIGN.md §11 D1)");
  }
}

// ---- D2: nondeterminism sources in the simulator core ----------------------

void rule_d2(const LexedFile& f, std::vector<Finding>& out) {
  for (const auto& [line, header] : f.includes)
    if (kNondetHeaders.count(header) != 0)
      add_finding(out, f, "D2", line,
                  "#include <" + header +
                      "> in the simulator core: wall-clock and libc entropy must not reach "
                      "architectural state (use common/rng.hpp; allow() host-measurement uses)");

  const auto& ts = f.tokens;
  for (auto it = ts.begin(); it != ts.end(); ++it) {
    if (it->kind != Token::Kind::kIdent) continue;

    if (kNondetTypes.count(it->text) != 0) {
      add_finding(out, f, "D2", it->line,
                  "nondeterministic source '" + it->text +
                      "' in the simulator core: simulation state must derive only from "
                      "MachineConfig::seed via tlrob::Rng");
      continue;
    }

    if (kNondetCalls.count(it->text) != 0) {
      auto j = it + 1;
      if (j != ts.end() && j->is_punct("(") && !prev_is_member_access(it, ts.begin()))
        add_finding(out, f, "D2", it->line,
                    "call to '" + it->text +
                        "()' in the simulator core: host time/entropy is not part of the "
                        "simulated machine");
      continue;
    }

    // Pointer-valued keys: map<T*, ...> iterates in address order (ASLR).
    if (kKeyedContainers.count(it->text) != 0) {
      auto j = it + 1;
      if (j == ts.end() || !j->is_punct("<")) continue;
      int depth = 0;
      bool ptr_in_key = false;
      for (; j != ts.end(); ++j) {
        if (j->is_punct("<"))
          ++depth;
        else if (j->is_punct(">")) {
          if (--depth == 0) break;
        } else if (j->is_punct(",") && depth == 1)
          break;  // end of the key type
        else if (j->is_punct("*") && depth == 1)
          ptr_in_key = true;
        else if (j->is_punct(";"))
          break;
      }
      if (ptr_in_key)
        add_finding(out, f, "D2", it->line,
                    "pointer-valued key in '" + it->text +
                        "<...>': key order is allocation-address order, which ASLR and "
                        "allocator state reshuffle across runs");
    }
  }
}

// ---- C1: every mutex guards something --------------------------------------

void rule_c1(const LexedFile& f, std::vector<Finding>& out) {
  const auto& ts = f.tokens;

  // Mutex-typed declarations: `std::mutex name;` / `Mutex name;` /
  // `mutable std::shared_mutex name;`. A following '(' or '{' means a
  // constructor/function — not a plain member/variable declaration.
  struct Decl {
    std::string name;
    u32 line;
  };
  std::vector<Decl> mutexes;
  for (auto it = ts.begin(); it != ts.end(); ++it) {
    if (it->kind != Token::Kind::kIdent ||
        !(it->text == "mutex" || it->text == "shared_mutex" || it->text == "Mutex"))
      continue;
    auto j = it + 1;
    if (j == ts.end() || j->kind != Token::Kind::kIdent) continue;
    auto k = j + 1;
    if (k != ts.end() && k->is_punct(";")) mutexes.push_back({j->text, j->line});
  }
  if (mutexes.empty()) return;

  // Annotation coverage: names appearing inside TLROB_GUARDED_BY(...) /
  // TLROB_PT_GUARDED_BY(...) / TLROB_REQUIRES(...) / TLROB_ACQUIRE(...).
  std::set<std::string> guarded;
  for (auto it = ts.begin(); it != ts.end(); ++it) {
    if (it->kind != Token::Kind::kIdent) continue;
    if (it->text != "TLROB_GUARDED_BY" && it->text != "TLROB_PT_GUARDED_BY" &&
        it->text != "TLROB_REQUIRES" && it->text != "TLROB_ACQUIRE")
      continue;
    auto j = it + 1;
    if (j == ts.end() || !j->is_punct("(")) continue;
    int depth = 0;
    for (; j != ts.end(); ++j) {
      if (j->is_punct("("))
        ++depth;
      else if (j->is_punct(")") && --depth == 0)
        break;
      else if (j->kind == Token::Kind::kIdent)
        guarded.insert(j->text);
    }
  }

  for (const Decl& m : mutexes)
    if (guarded.count(m.name) == 0)
      add_finding(out, f, "C1", m.line,
                  "mutex '" + m.name +
                      "' guards nothing the analysis can see: annotate the state it protects "
                      "with TLROB_GUARDED_BY(" + m.name +
                      ") (common/thread_annotations.hpp, DESIGN.md §11 C1)");
}

// ---- C2: RAII locking only -------------------------------------------------

void rule_c2(const LexedFile& f, std::vector<Finding>& out) {
  const auto& ts = f.tokens;
  for (auto it = ts.begin(); it != ts.end(); ++it) {
    if (it->kind != Token::Kind::kIdent ||
        !(it->text == "lock" || it->text == "unlock" || it->text == "try_lock"))
      continue;
    if (!prev_is_member_access(it, ts.begin())) continue;
    auto j = it + 1;
    if (j != ts.end() && j->is_punct("("))
      add_finding(out, f, "C2", it->line,
                  "naked ." + it->text +
                      "() call: hold mutexes through a scoped MutexLock (common/sync.hpp) so "
                      "every exit path releases (DESIGN.md §11 C2)");
  }
}

}  // namespace

bool LintOptions::rule_enabled(const std::string& id) const {
  return rules.empty() || std::find(rules.begin(), rules.end(), id) != rules.end();
}

bool in_scope(const std::string& rule, const std::string& p) {
  if (rule == "D1") return match_scope(kEmissionScope, p);
  if (rule == "D2") return match_scope(kCoreScope, p);
  if (rule == "C1" || rule == "C2") return match_scope(kConcurrencyScope, p);
  return false;
}

std::vector<Finding> run_file_rules(const LexedFile& file, const LintOptions& opts) {
  std::vector<Finding> out;
  auto want = [&](const char* id) {
    return opts.rule_enabled(id) && (opts.all_scopes || in_scope(id, file.display_path));
  };
  if (want("D1")) rule_d1(file, out);
  if (want("D2")) rule_d2(file, out);
  if (want("C1")) rule_c1(file, out);
  if (want("C2")) rule_c2(file, out);
  return out;
}

std::string Finding::format() const {
  std::ostringstream ss;
  ss << path << ":" << line << ": [" << rule << "] " << message;
  return ss.str();
}

std::vector<std::string> rule_catalogue() {
  return {
      "D1  no unordered-container iteration in emission paths (runner record/sinks/golden/"
      "render/json/engine, obs)",
      "D2  no nondeterminism sources in the simulator core (sim, pipeline, rob, memory): "
      "rand/clocks/pointer-keyed maps",
      "C1  every mutex in a concurrent module is named by a TLROB_GUARDED_BY annotation",
      "C2  RAII locking only in concurrent modules (no naked .lock()/.unlock())",
  };
}

}  // namespace tlrob::lint

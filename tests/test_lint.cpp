// Tests for tlrob-lint itself (tools/lint): every rule in the catalogue is
// proven live by a seeded-violation fixture and proven quiet by a clean
// fixture, plus lexer/suppression/scoping unit tests.
// Fixtures live in tests/lint/ and are lexed, never compiled.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace tlrob::lint {
namespace {

std::string fixture(const std::string& name) {
  return std::string(TLROB_LINT_FIXTURE_DIR) + "/" + name;
}

/// Lexes a fixture and runs exactly one rule over it, scope lifted.
std::vector<Finding> run_rule(const std::string& file, const std::string& rule) {
  LexedFile lf = lex_file(fixture(file));
  lf.display_path = file;
  LintOptions opts;
  opts.all_scopes = true;
  opts.rules = {rule};
  return run_file_rules(lf, opts);
}

bool any_message_contains(const std::vector<Finding>& fs, const std::string& needle) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.message.find(needle) != std::string::npos;
  });
}

// ---- D1 --------------------------------------------------------------------

TEST(LintD1, SeededViolationsAreFound) {
  const auto fs = run_rule("d1_violation.cpp", "D1");
  ASSERT_EQ(fs.size(), 2u);
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "D1");
  EXPECT_TRUE(any_message_contains(fs, "range-for over unordered container 'local'"));
  EXPECT_TRUE(any_message_contains(fs, "iterator over unordered container 'local'"));
}

TEST(LintD1, CleanShapesPass) {
  EXPECT_TRUE(run_rule("d1_clean.cpp", "D1").empty());
}

// ---- D2 --------------------------------------------------------------------

TEST(LintD2, SeededViolationsAreFound) {
  const auto fs = run_rule("d2_violation.cpp", "D2");
  ASSERT_EQ(fs.size(), 6u);  // <ctime> + <random> + random_device + rand + time + T* key
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "D2");
  EXPECT_TRUE(any_message_contains(fs, "#include <random>"));
  EXPECT_TRUE(any_message_contains(fs, "#include <ctime>"));
  EXPECT_TRUE(any_message_contains(fs, "random_device"));
  EXPECT_TRUE(any_message_contains(fs, "'rand()'"));
  EXPECT_TRUE(any_message_contains(fs, "'time()'"));
  EXPECT_TRUE(any_message_contains(fs, "pointer-valued key"));
}

TEST(LintD2, CleanAndSuppressedShapesPass) {
  // d2_clean.cpp contains a <chrono> include and a steady_clock read, both
  // under `tlrob-lint: allow(D2)` — the suppression mechanism itself is
  // what this fixture proves.
  EXPECT_TRUE(run_rule("d2_clean.cpp", "D2").empty());
}

// ---- C1 --------------------------------------------------------------------

TEST(LintC1, OrphanMutexIsFound) {
  const auto fs = run_rule("c1_violation.cpp", "C1");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "C1");
  EXPECT_TRUE(any_message_contains(fs, "orphan_mu_"));
}

TEST(LintC1, AnnotatedMutexPasses) {
  EXPECT_TRUE(run_rule("c1_clean.cpp", "C1").empty());
}

// ---- C2 --------------------------------------------------------------------

TEST(LintC2, NakedLockCallsAreFound) {
  const auto fs = run_rule("c2_violation.cpp", "C2");
  ASSERT_EQ(fs.size(), 5u);  // lock + try_lock + 3x unlock
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "C2");
  EXPECT_TRUE(any_message_contains(fs, ".lock()"));
  EXPECT_TRUE(any_message_contains(fs, ".unlock()"));
  EXPECT_TRUE(any_message_contains(fs, ".try_lock()"));
}

TEST(LintC2, RaiiLockingPasses) {
  EXPECT_TRUE(run_rule("c2_clean.cpp", "C2").empty());
}

// ---- lexer + suppression ---------------------------------------------------

TEST(LintLexer, CommentsStringsAndIncludes) {
  const LexedFile lf = lex_source("x.cpp",
                                  "#include <unordered_map>\n"
                                  "// comment rand() should vanish\n"
                                  "/* block time() too */\n"
                                  "const char* s = \"rand() in a string\";\n"
                                  "auto raw = R\"(rand() in a raw string)\";\n"
                                  "int real_ident = 7;\n");
  ASSERT_EQ(lf.includes.size(), 1u);
  EXPECT_EQ(lf.includes[0].second, "unordered_map");
  // None of the rand/time mentions survive as identifier tokens.
  for (const Token& t : lf.tokens) {
    if (t.kind == Token::Kind::kIdent) {
      EXPECT_NE(t.text, "rand");
    }
  }
}

TEST(LintLexer, AllowDirectivesCoverOwnAndNextLine) {
  const LexedFile lf = lex_source("x.cpp",
                                  "// tlrob-lint: allow(D2) reviewed: host-side only\n"
                                  "int a;\n"
                                  "int b;\n");
  EXPECT_TRUE(lf.allowed("D2", 1));
  EXPECT_TRUE(lf.allowed("D2", 2));
  EXPECT_FALSE(lf.allowed("D2", 3));
  EXPECT_FALSE(lf.allowed("D1", 2));
}

TEST(LintLexer, AllowFileCoversEverything) {
  const LexedFile lf = lex_source("x.cpp",
                                  "// tlrob-lint: allow-file(D1,C2) generated code\n"
                                  "int a;\n");
  EXPECT_TRUE(lf.allowed("D1", 999));
  EXPECT_TRUE(lf.allowed("C2", 1));
  EXPECT_FALSE(lf.allowed("D2", 1));
}

// ---- scoping ---------------------------------------------------------------

TEST(LintScopes, RulesBindToTheirModules) {
  EXPECT_TRUE(in_scope("D1", "src/runner/sinks.cpp"));
  EXPECT_TRUE(in_scope("D1", "src/obs/chrome_trace.cpp"));
  EXPECT_FALSE(in_scope("D1", "src/sim/smt_sim.cpp"));
  EXPECT_TRUE(in_scope("D2", "src/sim/smt_sim.cpp"));
  EXPECT_FALSE(in_scope("D2", "src/runner/engine.cpp"));
  EXPECT_TRUE(in_scope("C2", "src/common/thread_pool.cpp"));
  EXPECT_TRUE(in_scope("C1", "src/common/sync.hpp"));
  EXPECT_TRUE(in_scope("C2", "src/sim/cmp.cpp"));
  EXPECT_FALSE(in_scope("C2", "src/rob/allocation_policy.cpp"));
}

TEST(LintCatalogue, FourRules) {
  const auto lines = rule_catalogue();
  ASSERT_EQ(lines.size(), 4u);
  for (const char* id : {"D1", "D2", "C1", "C2"})
    EXPECT_TRUE(std::any_of(lines.begin(), lines.end(), [&](const std::string& l) {
      return l.rfind(id, 0) == 0;
    })) << id;
}

}  // namespace
}  // namespace tlrob::lint

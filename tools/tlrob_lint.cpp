// tlrob-lint CLI — the repo's determinism & concurrency static analyzer.
//
// Repo mode (CI, ctest):
//   tlrob-lint -p build/compile_commands.json --root .
// lints every translation unit in the compile database plus every header
// under <root>/src and exits 1 on any finding (2 on usage/IO errors).
//
// Fixture mode (rule tests):
//   tlrob-lint --all-scopes [--rules D1,C2] file...
// lints exactly the named files with path scoping disabled, which is how
// tests/lint/ proves every rule still bites.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace fs = std::filesystem;
using namespace tlrob::lint;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-p compile_commands.json] [--root DIR] [--rules D1,D2,...]\n"
               "          [--all-scopes] [--list-rules] [file...]\n",
               argv0);
  return 2;
}

/// Root-relative display form of `path` (falls back to the path itself).
std::string display(const fs::path& root, const std::string& path) {
  std::error_code ec;
  const fs::path rel = fs::relative(path, root, ec);
  if (ec || rel.empty() || rel.native().rfind("..", 0) == 0) return path;
  return rel.generic_string();
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  std::string root = ".";
  LintOptions opts;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tlrob-lint: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-p" || arg == "--compile-db")
      db_path = value("-p");
    else if (arg == "--root")
      root = value("--root");
    else if (arg == "--all-scopes")
      opts.all_scopes = true;
    else if (arg == "--rules") {
      std::string list = value("--rules");
      for (size_t start = 0; start <= list.size();) {
        const size_t comma = list.find(',', start);
        const std::string id = list.substr(start, comma - start);
        if (!id.empty()) opts.rules.push_back(id);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg == "--list-rules") {
      for (const std::string& line : rule_catalogue()) std::printf("%s\n", line.c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "tlrob-lint: unknown flag %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }

  const fs::path root_path = fs::absolute(root);
  const bool repo_mode = files.empty();

  try {
    if (repo_mode) {
      if (db_path.empty()) {
        std::fprintf(stderr, "tlrob-lint: repo mode needs -p compile_commands.json\n");
        return usage(argv[0]);
      }
      files = compile_db_files(db_path);
      // The compile database only lists .cpp TUs; headers carry contracts
      // too, so walk src/ for them.
      const fs::path src = root_path / "src";
      if (fs::is_directory(src))
        for (const auto& e : fs::recursive_directory_iterator(src))
          if (e.is_regular_file() && e.path().extension() == ".hpp")
            files.push_back(e.path().string());
    }

    // Lex once, then run the per-file rules.
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    std::vector<LexedFile> lexed;
    lexed.reserve(files.size());
    for (const std::string& f : files) {
      LexedFile lf = lex_file(f);
      lf.display_path = display(root_path, f);
      lexed.push_back(std::move(lf));
    }

    std::vector<Finding> findings;
    for (const LexedFile& lf : lexed)
      for (Finding& fi : run_file_rules(lf, opts)) findings.push_back(std::move(fi));

    // Deterministic report order, one finding per (file, line, rule).
    std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
      if (a.path != b.path) return a.path < b.path;
      if (a.line != b.line) return a.line < b.line;
      return a.rule < b.rule;
    });
    std::set<std::string> seen;
    unsigned reported = 0;
    for (const Finding& fi : findings) {
      const std::string key = fi.path + ":" + std::to_string(fi.line) + ":" + fi.rule;
      if (!seen.insert(key).second) continue;
      std::printf("%s\n", fi.format().c_str());
      ++reported;
    }
    if (reported != 0) {
      std::printf("tlrob-lint: %u finding(s) in %zu file(s)\n", reported, lexed.size());
      return 1;
    }
    std::printf("tlrob-lint: clean (%zu files)\n", lexed.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tlrob-lint: %s\n", e.what());
    return 2;
  }
}

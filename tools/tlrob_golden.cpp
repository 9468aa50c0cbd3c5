// tlrob-golden — records / checks the golden-run fixtures under tests/golden.
//
// Default mode is a dry check: re-run every preset and diff against the
// fixtures on disk, exiting nonzero on any drift (the same comparison the
// golden-run gtest suite performs, usable standalone). Rewriting fixtures
// is deliberate: it requires --regen, and is only legitimate after an
// intentional architectural-model change — never to paper over drift from a
// performance refactor.
//
//   tlrob-golden [--dir tests/golden] [--preset NAME[,NAME...]] [--regen]
//
// Options follow the common grammar (common/config.hpp); --preset takes the
// preset list tlrob-campaign does. Exit status: 0 all fixtures match (or
// were rewritten), 1 drift, 2 bad input ("error: ..." on stderr).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "runner/cli.hpp"
#include "runner/golden.hpp"

namespace {

using namespace tlrob;
using namespace tlrob::runner;

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

int check_or_regen(const Options& opts) {
  const std::string dir = opts.get("dir", "tests/golden");
  const std::vector<std::string> presets =
      opts.has("preset") ? preset_list(opts.get("preset")) : preset_names();
  const bool regen = opts.get_bool("regen", false);
  opts.require_all_read();
  if (!opts.positional().empty())
    throw std::invalid_argument("unexpected argument '" + opts.positional().front() + "'");

  int failures = 0;
  for (const std::string& name : presets) {
    const std::string path = dir + "/" + name + ".json";
    const std::vector<GoldenRow> rows = golden_fingerprints(name);
    if (regen) {
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot write " + path);
      out << golden_to_json(name, rows);
      std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
      continue;
    }
    std::string text;
    if (!read_file(path, text)) {
      std::printf("MISSING %s (run with --regen to record)\n", path.c_str());
      ++failures;
      continue;
    }
    const GoldenFile fixture = golden_from_json(text);
    const RunLengthSpec length = golden_run_length();
    if (fixture.length.insts != length.insts || fixture.length.warmup != length.warmup) {
      std::printf("STALE %s: recorded at insts=%llu warmup=%llu, current length is %llu/%llu\n",
                  path.c_str(), (unsigned long long)fixture.length.insts,
                  (unsigned long long)fixture.length.warmup, (unsigned long long)length.insts,
                  (unsigned long long)length.warmup);
      ++failures;
      continue;
    }
    const std::string diff = golden_diff(fixture.rows, rows);
    if (diff.empty()) {
      std::printf("OK %s (%zu rows)\n", name.c_str(), rows.size());
    } else {
      std::printf("DRIFT %s: %s\n", name.c_str(), diff.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return cli_main([&] { return check_or_regen(Options::from_args(argc, argv, {"regen"})); });
}

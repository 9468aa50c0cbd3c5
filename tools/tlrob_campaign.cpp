// tlrob-campaign — the experiment-campaign CLI.
//
// Expands a declarative sweep (schemes × thresholds × mixes × run length)
// or named presets (fig1..fig7, table2, ablation_*) into independent jobs,
// executes them on `--jobs` workers, and streams results into the
// JSON-lines record sink. Parallel runs are byte-identical to serial ones,
// and several presets in one run are byte-identical to separate runs
// concatenated (they share the engine's cell store, so a machine that
// recurs across presets is simulated once).
//
//   tlrob-campaign fig2 --jobs 8 --json fig2.jsonl
//   tlrob-campaign fig2,fig3,fig6 --json paper.jsonl
//   tlrob-campaign all --json all.jsonl
//   tlrob-campaign --schemes rrob,prob --thresholds 8,16 --mixes 1,2
//       --insts 20000 --warmup 5000 --json sweep.jsonl
//   tlrob-campaign --workload trace:app.champsim.gz,trace:app.champsim.gz
//       --insts 20000 --json out.jsonl
//   tlrob-campaign fig2 --manifest fig2.manifest --resume
//   tlrob-campaign --list
#include <cstdio>

#include "runner/cli.hpp"
#include "sim/experiment.hpp"

using namespace tlrob;
using namespace tlrob::runner;

namespace {

void print_usage() {
  std::printf(
      "usage: tlrob-campaign [preset[,preset...]|all] [options]\n"
      "       tlrob-campaign --schemes a,b --thresholds n,m [options]\n"
      "\n"
      "options (both --key value and key=value forms are accepted):\n"
      "  --jobs N         worker threads (0 = hardware concurrency, 1 = serial)\n"
      "  --insts N        committed-instruction target per run (default %llu)\n"
      "  --warmup N       warmup commits excluded from statistics (default %llu)\n"
      "  --json PATH      JSON-lines sink ('-' = stdout)\n"
      "  --manifest PATH  completion journal enabling --resume; truncated first\n"
      "                   unless --resume is given, then appended to\n"
      "  --resume         replay successful cells from the manifest; a manifest\n"
      "                   without single-thread reference lines (written by an\n"
      "                   older build) has its references simulated once and\n"
      "                   appended, even when every cell resumes\n"
      "  --no-render      suppress stdout tables (sink-only run)\n"
      "  --workload SPEC  explicit per-thread workload list instead of --mixes:\n"
      "                   comma-separated profile names, trace:<file> (ChampSim\n"
      "                   format, gzip ok), tracegen:<profile>@<records>[@<seed>],\n"
      "                   or mix:<n>; thread count follows the list length\n"
      "  --sample-interval N  interval telemetry every N cycles (0 = off)\n"
      "  --sample-dir DIR also write each job's series to DIR\n"
      "  --list           list the available presets\n"
      "\n"
      "custom sweeps only (no preset):\n"
      "  --max-cycles N   per-job cycle cap / timeout (0 = derived bound)\n"
      "  --seed N         base RNG seed (default 12345)\n"
      "  --schemes LIST   baseline32|baseline128|rrob|relaxed|cdr|prob|adaptive\n"
      "  --thresholds L   DoD thresholds crossed with the schemes (default 16)\n"
      "  --mixes LIST     1-based Table 2 mix subset (default: all 11)\n"
      "  --name NAME      campaign name\n"
      "  --cores N        CMP: split each column's threads over N cores\n"
      "  --llc SPEC       shared LLC kb[:ways[:lat[:mshr]]] (implies a backend)\n"
      "  --dram SPEC      DRAM channels[:banks[:tcas[:trcd[:trp]]]]\n"
      "\n"
      "An option nothing uses (a typo, or a custom-sweep option given to a\n"
      "preset) is an error: exit status 2, naming the option.\n",
      static_cast<unsigned long long>(kDefaultCommitTarget),
      static_cast<unsigned long long>(kDefaultWarmup));
}

}  // namespace

int main(int argc, char** argv) {
  return cli_main([&] {
    const Options opts = Options::from_args(argc, argv, kCampaignFlags);
    if (opts.has("help")) {
      print_usage();
      return 0;
    }
    if (opts.has("list")) {
      std::printf("%-24s %s\n", "preset", "sweep");
      for (const auto& name : preset_names())
        std::printf("%-24s %s\n", name.c_str(), preset_summary(name).c_str());
      return 0;
    }
    // preset_main rejects an unknown preset name or option with exit status 2.
    const std::string preset = opts.positional().empty() ? "" : opts.positional().front();
    return preset_main(preset, argc, argv);
  });
}

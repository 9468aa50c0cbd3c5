// Command-line front end of the tlrob-campaign binary.
//
// Options parse through Options::from_args (common/config.hpp) with
// kCampaignFlags as the bare flags: `key=value`, `--key=value`, `--key
// value` and `--flag` all work, and a lone `-` after an option is its
// value. Common options:
//   --jobs N        worker threads (0 = hardware concurrency, 1 = serial)
//   --insts N       committed-instruction target per run
//   --warmup N      warmup commits excluded from statistics
//   --json PATH     JSON-lines sink ("-" = stdout)
//   --csv PATH      CSV sink ("-" = stdout)
//   --manifest PATH completion journal enabling --resume
//   --resume        replay successful cells from the manifest
//   --no-render     suppress the stdout tables (sink-only run)
//   --max-cycles N  per-job cycle cap (the timeout; 0 = derived bound)
//   --seed N        base RNG seed
//   --per-job-seeds derive a distinct deterministic seed per cell
//   --sample-interval N  interval telemetry every N cycles (obs.* summary
//                   counters per record; 0 = off)
//   --sample-dir D  also write each job's full series to
//                   D/samples_job<index>.jsonl
// Custom sweeps (tlrob-campaign without a preset):
//   --schemes a,b   baseline32|baseline128|rrob|relaxed|cdr|prob|adaptive
//   --thresholds l  DoD thresholds crossed with the threshold-taking schemes
//   --mixes 1,2,5   Table 2 mix subset (default: all 11)
#pragma once

#include <set>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "runner/presets.hpp"

namespace tlrob::runner {

/// tlrob-campaign's options that never take a value.
inline const std::set<std::string> kCampaignFlags = {"resume", "per_job_seeds", "no_render",
                                                     "list", "help"};

/// Builds a custom sweep spec from --schemes/--thresholds/--mixes options.
/// Throws std::invalid_argument on unknown scheme or mix names.
CampaignSpec custom_campaign(const Options& opts);

/// Expands a preset argument — one name, a comma-separated list, or "all"
/// (every preset in preset_names() order). Throws std::invalid_argument
/// naming the first unknown preset.
std::vector<std::string> preset_list(const std::string& arg);

/// Runs the campaigns described by already-parsed options: the presets of
/// preset_list(preset) in order when `preset` is non-empty, otherwise the
/// custom sweep options. Wires up the json/csv/manifest sinks, which
/// receive the presets one after another. Returns a process exit code
/// (non-zero when any cell failed). Throws std::invalid_argument, before
/// anything runs, on an option that nothing read: a typo, or a custom-sweep
/// option given to presets.
int run_from_options(const std::string& preset, const Options& opts);

/// main() body of tlrob-campaign: run_from_options on argv, under the
/// cli_main error contract (any exception is "error: ..." and exit 2).
int preset_main(const std::string& preset, int argc, const char* const* argv);

}  // namespace tlrob::runner

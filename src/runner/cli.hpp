// Command-line front end of the tlrob-campaign binary.
//
// Options parse through Options::from_args (common/config.hpp) with
// kCampaignFlags as the bare flags: `key=value`, `--key=value`, `--key
// value` and `--flag` all work, and a lone `-` after an option is its
// value. `tlrob-campaign --help` (tools/tlrob_campaign.cpp) is the one
// list of the options.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "runner/presets.hpp"

namespace tlrob::runner {

/// tlrob-campaign's options that never take a value.
inline const std::set<std::string> kCampaignFlags = {"resume", "no_render", "list", "help"};

/// The run-length options every front end reads: insts= (the commit
/// target) and warmup=, each defaulting to RunLengthSpec's. Throws
/// std::invalid_argument naming insts when it is 0.
RunLengthSpec run_length(const Options& opts);

/// Builds a custom sweep spec from --schemes/--thresholds/--mixes and the
/// other custom-sweep options. The options it shares with presets
/// (--workload, --sample-interval, --sample-dir) are left to campaign_list;
/// with --workload the spec has no mixes yet. Throws std::invalid_argument
/// on unknown scheme or mix names.
CampaignSpec custom_campaign(const Options& opts);

/// Expands a preset argument — one name, a comma-separated list, or "all"
/// (every preset in preset_names() order). Throws std::invalid_argument
/// naming the first unknown preset.
std::vector<std::string> preset_list(const std::string& arg);

/// The campaigns a command line runs, in order: the presets of
/// preset_list(preset), or the custom sweep (an unnamed preset) when
/// `preset` is empty. Each has the shared options applied: --workload
/// replaces its mixes and sizes its machines (std::invalid_argument when
/// the list does not split over a column's cores), --sample-interval sets
/// every column's config.telemetry.sample_interval and --sample-dir its
/// series directory.
std::vector<PresetRun> campaign_list(const std::string& preset, const Options& opts);

/// Runs campaign_list(preset, opts) one campaign after another, each with
/// its stdout rendering (unless --no-render), and wires up the
/// json/manifest sinks, which see the campaigns in order. Returns a
/// process exit code (non-zero when any cell failed). Throws
/// std::invalid_argument, before anything runs, on an option that nothing
/// read: a typo, or a custom-sweep option given to presets.
int run_from_options(const std::string& preset, const Options& opts);

/// main() body of tlrob-campaign: run_from_options on argv, under the
/// cli_main error contract (any exception is "error: ..." and exit 2).
int preset_main(const std::string& preset, int argc, const char* const* argv);

}  // namespace tlrob::runner

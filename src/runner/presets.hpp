// The paper's figures, tables and ablations as named campaign presets.
//
// Each preset supplies a CampaignSpec (what to sweep) plus its stdout
// rendering: the generic fair-throughput table (FtTableSink) and/or a
// figure-specific epilogue (histograms, predictor quality, threshold
// summary) rendered from the returned records. The tlrob-campaign CLI
// reaches them by name and runs them, and custom sweeps, on one path
// (runner/cli.hpp).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "runner/engine.hpp"
#include "runner/render.hpp"

namespace tlrob::runner {

/// A campaign plus its stdout rendering: the fair-throughput table
/// (FtTableSink), streamed while the campaign runs and headed `title` (the
/// campaign name when empty; no table when `table` is false), then
/// `epilogue`, rendered from the finished records. A custom sweep is an
/// unnamed preset: the table under its campaign name and no epilogue.
struct PresetRun {
  CampaignSpec spec;
  bool table = true;
  std::string title;
  void (*epilogue)(const CampaignResult&, const CampaignSpec&, std::FILE*) = nullptr;
};

/// All preset names, in presentation order.
const std::vector<std::string>& preset_names();

bool is_preset(const std::string& name);

/// One-line description of a preset (for --list).
std::string preset_summary(const std::string& name);

/// The campaign a preset sweeps. Throws std::invalid_argument on unknown
/// names.
CampaignSpec preset_campaign(const std::string& name, const RunLengthSpec& length);

/// The campaign a preset sweeps, with its rendering. Throws
/// std::invalid_argument on unknown names.
PresetRun preset_run(const std::string& name, const RunLengthSpec& length);

}  // namespace tlrob::runner

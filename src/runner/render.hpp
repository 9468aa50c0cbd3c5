// Rendering helpers fed by JobRecords — the figure-style presentations
// (DoD histograms, per-column averages) that previously lived as printf
// loops inside individual bench binaries. Everything here derives from the
// same records the JSON sink writes.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "runner/engine.hpp"

namespace tlrob::runner {

/// Figures 1/3/7-style dependents histogram table: one row per dependent
/// count, one column per mix, plus per-mix sample means and counts.
void render_dod_histograms(std::FILE* out, const std::string& title,
                           const std::vector<DodSummary>& per_mix);

/// Sample-weighted mean across mixes.
double overall_dod_mean(const std::vector<DodSummary>& per_mix);

/// Records of one configuration column, in mix order. Skips failed cells.
std::vector<const JobRecord*> column_records(const CampaignResult& result,
                                             const std::string& config_name);

/// Average fair throughput of one column (over its successful cells).
double column_average_ft(const CampaignResult& result, const std::string& config_name);

/// DoD summaries of one column in mix order (true or proxy histograms).
std::vector<DodSummary> column_dod(const CampaignResult& result,
                                   const std::string& config_name, bool proxy);

/// Sum of a counter over one column's successful cells. Throws
/// std::out_of_range naming the counter when a cell lacks it.
u64 column_counter(const CampaignResult& result, const std::string& config_name,
                   const std::string& counter);

}  // namespace tlrob::runner

#include "runner/campaign.hpp"

#include <stdexcept>

namespace tlrob::runner {

std::vector<JobSpec> expand(const CampaignSpec& spec) {
  if (spec.columns.empty()) throw std::invalid_argument("campaign has no configurations");
  if (spec.mixes.empty()) throw std::invalid_argument("campaign has no mixes");
  if (spec.lengths.empty()) throw std::invalid_argument("campaign has no run lengths");

  std::vector<JobSpec> jobs;
  jobs.reserve(spec.lengths.size() * spec.mixes.size() * spec.columns.size());
  u64 index = 0;
  for (const RunLengthSpec& rl : spec.lengths) {
    for (const Mix& mix : spec.mixes) {
      for (const ConfigColumn& col : spec.columns) {
        JobSpec js;
        js.index = index;
        js.campaign = spec.name;
        js.config_name = col.name;
        js.config = col.config;
        js.mix = mix;
        js.insts = rl.insts;
        js.warmup = rl.warmup;
        js.max_cycles = col.max_cycles != 0 ? col.max_cycles : spec.max_cycles;
        js.seed = spec.seed;
        js.sample_dir = spec.sample_dir;
        jobs.push_back(std::move(js));
        ++index;
      }
    }
  }
  return jobs;
}

}  // namespace tlrob::runner

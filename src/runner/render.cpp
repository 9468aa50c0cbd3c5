#include "runner/render.hpp"

#include <algorithm>
#include <stdexcept>

namespace tlrob::runner {

void render_dod_histograms(std::FILE* out, const std::string& title,
                           const std::vector<DodSummary>& per_mix) {
  std::fprintf(out, "=== %s ===\n", title.c_str());
  std::fprintf(out, "%-6s", "#dep");
  for (size_t m = 0; m < per_mix.size(); ++m)
    std::fprintf(out, " %9s", ("Mix" + std::to_string(m + 1)).c_str());
  std::fprintf(out, "\n");
  size_t rows = 0;
  for (const auto& d : per_mix) rows = std::max(rows, d.buckets.size());
  for (size_t v = 0; v < rows; ++v) {
    std::fprintf(out, "%-6zu", v);
    for (const auto& d : per_mix)
      std::fprintf(out, " %9llu",
                   static_cast<unsigned long long>(v < d.buckets.size() ? d.buckets[v] : 0));
    std::fprintf(out, "\n");
  }
  std::fprintf(out, "%-6s", "mean");
  for (const auto& d : per_mix) std::fprintf(out, " %9.2f", d.mean());
  std::fprintf(out, "\n%-6s", "n");
  for (const auto& d : per_mix)
    std::fprintf(out, " %9llu", static_cast<unsigned long long>(d.samples));
  std::fprintf(out, "\n");
}

double overall_dod_mean(const std::vector<DodSummary>& per_mix) {
  double sum = 0;
  u64 n = 0;
  for (const auto& d : per_mix) {
    sum += d.sum;
    n += d.samples;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<const JobRecord*> column_records(const CampaignResult& result,
                                             const std::string& config_name) {
  std::vector<const JobRecord*> out;
  for (const auto& rec : result.records)
    if (rec.config == config_name && rec.ok()) out.push_back(&rec);
  return out;
}

double column_average_ft(const CampaignResult& result, const std::string& config_name) {
  const auto recs = column_records(result, config_name);
  if (recs.empty()) return 0.0;
  double sum = 0;
  for (const JobRecord* r : recs) sum += r->ft;
  return sum / static_cast<double>(recs.size());
}

std::vector<DodSummary> column_dod(const CampaignResult& result,
                                   const std::string& config_name, bool proxy) {
  std::vector<DodSummary> out;
  for (const JobRecord* r : column_records(result, config_name))
    out.push_back(proxy ? r->dod_proxy : r->dod_true);
  return out;
}

u64 column_counter(const CampaignResult& result, const std::string& config_name,
                   const std::string& counter) {
  u64 sum = 0;
  for (const JobRecord* r : column_records(result, config_name)) {
    const auto it = r->counters.find(counter);
    if (it == r->counters.end())
      throw std::out_of_range(config_name + " record has no counter named " + counter);
    sum += it->second;
  }
  return sum;
}

}  // namespace tlrob::runner

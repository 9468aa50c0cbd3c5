#include "obs/interval_sampler.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/histogram.hpp"
#include "runner/json.hpp"

namespace tlrob::obs {

namespace {

constexpr ThreadId kNoOwner = 0xffffffffu;

using runner::json_double;
using runner::json_u64;

constexpr const char* kStallClassNames[kStallClassCount] = {
    "commit", "frontend", "mem_private", "mem_llc",
    "mem_dram", "mem_bus", "rob2_wait", "other",
};

}  // namespace

const char* stall_class_name(StallClass c) {
  return kStallClassNames[static_cast<size_t>(c)];
}

void IntervalSeries::write_jsonl(std::ostream& os) const {
  std::vector<u64> prev_committed;
  for (const IntervalSample& s : samples_) {
    prev_committed.resize(s.threads.size(), 0);
    os << "{\"cycle\":" << json_u64(s.cycle) << ",\"interval\":" << json_u64(interval_)
       << ",\"owner\":";
    if (s.second_level_owner == kNoOwner)
      os << "null";
    else
      os << json_u64(s.second_level_owner);
    os << ",\"iq_occ\":" << json_u64(s.iq_occ_total)
       << ",\"llc_mshr\":" << json_u64(s.llc_mshr_occ) << ",\"threads\":[";
    for (size_t t = 0; t < s.threads.size(); ++t) {
      const ThreadSample& th = s.threads[t];
      const u64 delta = th.committed - std::min(th.committed, prev_committed[t]);
      const double ipc =
          interval_ == 0 ? 0.0 : static_cast<double>(delta) / static_cast<double>(interval_);
      if (t != 0) os << ",";
      os << "{\"rob\":" << json_u64(th.rob_occ) << ",\"rob_cap\":" << json_u64(th.rob_cap)
         << ",\"iq\":" << json_u64(th.iq_occ) << ",\"lsq\":" << json_u64(th.lsq_occ)
         << ",\"dod\":" << json_u64(th.dod_proxy) << ",\"mlp\":" << json_u64(th.outstanding_l2)
         << ",\"committed\":" << json_u64(th.committed) << ",\"ipc\":" << json_double(ipc)
         << ",\"stall\":[";
      for (size_t c = 0; c < kStallClassCount; ++c) {
        if (c != 0) os << ",";
        os << json_u64(th.stall[c]);
      }
      os << "]}";
      prev_committed[t] = th.committed;
    }
    os << "]}\n";
  }
}

std::map<std::string, u64> series_summary_counters(const IntervalSeries& series) {
  std::map<std::string, u64> counters;
  if (series.empty()) return counters;
  counters["obs.samples"] = series.size();
  counters["obs.sample_interval"] = series.interval();

  const size_t num_threads = series.samples().front().threads.size();
  for (size_t t = 0; t < num_threads; ++t) {
    // Bucket bounds: occupancies are clamped by their capacities, so the
    // largest observed capacity sizes the histogram exactly; MLP and DoD
    // use the same bound (both are bounded by the window).
    u32 max_cap = 1;
    for (const IntervalSample& s : series.samples())
      max_cap = std::max(max_cap, s.threads[t].rob_cap);
    Histogram rob_occ(max_cap), iq_occ(max_cap), mlp(max_cap), dod(max_cap);
    for (const IntervalSample& s : series.samples()) {
      const ThreadSample& th = s.threads[t];
      rob_occ.record(th.rob_occ);
      iq_occ.record(th.iq_occ);
      mlp.record(th.outstanding_l2);
      dod.record(th.dod_proxy);
    }
    const std::string prefix = "obs.t" + std::to_string(t) + ".";
    counters[prefix + "rob_occ_p50"] = rob_occ.percentile(50.0);
    counters[prefix + "rob_occ_p90"] = rob_occ.percentile(90.0);
    counters[prefix + "rob_occ_p99"] = rob_occ.percentile(99.0);
    counters[prefix + "iq_occ_p90"] = iq_occ.percentile(90.0);
    counters[prefix + "mlp_p90"] = mlp.percentile(90.0);
    counters[prefix + "dod_p90"] = dod.percentile(90.0);
  }
  return counters;
}

std::map<std::string, u64> stall_summary_counters(
    const std::vector<std::array<u64, kStallClassCount>>& per_thread) {
  std::map<std::string, u64> counters;
  for (size_t t = 0; t < per_thread.size(); ++t) {
    const std::string prefix = "stall.t" + std::to_string(t) + ".";
    for (size_t c = 0; c < kStallClassCount; ++c)
      counters[prefix + kStallClassNames[c] + "_cycles"] = per_thread[t][c];
  }
  return counters;
}

std::map<std::string, u64> cmp_summary_counters(
    const IntervalSeries& series,
    const std::vector<std::array<u64, kStallClassCount>>& per_thread, u32 num_cores) {
  std::map<std::string, u64> counters;
  if (per_thread.empty()) return counters;
  counters["obs.cmp.cores"] = num_cores;
  u64 llc = 0, dram = 0, bus = 0;
  for (const auto& th : per_thread) {
    llc += th[static_cast<size_t>(StallClass::kMemLlc)];
    dram += th[static_cast<size_t>(StallClass::kMemDram)];
    bus += th[static_cast<size_t>(StallClass::kMemBus)];
  }
  counters["obs.cmp.stall_llc_cycles"] = llc;
  counters["obs.cmp.stall_dram_cycles"] = dram;
  counters["obs.cmp.stall_bus_cycles"] = bus;
  if (!series.empty()) {
    u32 max_occ = 1;
    for (const IntervalSample& s : series.samples())
      max_occ = std::max(max_occ, s.llc_mshr_occ);
    Histogram mshr(max_occ);
    for (const IntervalSample& s : series.samples()) mshr.record(s.llc_mshr_occ);
    counters["obs.cmp.llc_mshr_p90"] = mshr.percentile(90.0);
  }
  return counters;
}

IntervalSeries merge_core_series(const std::vector<const IntervalSeries*>& cores) {
  if (cores.empty()) return IntervalSeries{};
  IntervalSeries out(cores.front()->interval());
  for (const IntervalSeries* c : cores) {
    if (c->interval() != out.interval() || c->size() != cores.front()->size())
      throw std::logic_error("merge_core_series: cores sampled on different grids");
  }
  for (size_t i = 0; i < cores.front()->size(); ++i) {
    IntervalSample merged;
    merged.cycle = cores.front()->samples()[i].cycle;
    merged.second_level_owner = cores.front()->samples()[i].second_level_owner;
    // Every core samples the same shared backend, so core 0's MSHR-pool
    // occupancy is the machine-wide value.
    merged.llc_mshr_occ = cores.front()->samples()[i].llc_mshr_occ;
    for (const IntervalSeries* c : cores) {
      const IntervalSample& s = c->samples()[i];
      if (s.cycle != merged.cycle)
        throw std::logic_error("merge_core_series: cores sampled at different cycles");
      merged.iq_occ_total += s.iq_occ_total;
      merged.threads.insert(merged.threads.end(), s.threads.begin(), s.threads.end());
    }
    out.add(std::move(merged));
  }
  return out;
}

}  // namespace tlrob::obs

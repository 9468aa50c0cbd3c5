#include "runner/presets.hpp"

#include <stdexcept>

#include "sim/experiment.hpp"
#include "trace/resolve.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob::runner {

namespace {

// -- spec builders ----------------------------------------------------------

CampaignSpec ft_spec(const std::string& name, std::vector<ConfigColumn> columns,
                     const RunLengthSpec& rl) {
  CampaignSpec spec;
  spec.name = name;
  spec.columns = std::move(columns);
  spec.mixes = table2_mixes();
  spec.lengths = {rl};
  return spec;
}

ConfigColumn col(const std::string& name, MachineConfig cfg) { return {name, cfg, 0}; }

MachineConfig with_early_release(MachineConfig cfg) {
  cfg.early_register_release = true;
  return cfg;
}

MachineConfig with_policy(FetchPolicyKind k) {
  MachineConfig cfg = baseline32_config();
  cfg.fetch_policy = k;
  return cfg;
}

MachineConfig with_shared_regfile(MachineConfig cfg) {
  cfg.shared_regfile = true;
  return cfg;
}

constexpr u32 kThresholdSweep[] = {1, 2, 4, 8, 12, 16, 24, 31};

/// Core-major 8-benchmark mixes for the 2-core CMP presets: each pairs two
/// Table 2 mixes (core 0 runs the first, core 1 the second), chosen to put a
/// memory-bound mix next to an ILP/mixed one so the shared LLC and DRAM
/// banks see asymmetric pressure.
std::vector<Mix> cmp_pair_mixes() {
  constexpr u32 kPairs[][2] = {{1, 5}, {4, 9}, {7, 10}};
  std::vector<Mix> out;
  for (const auto& pair : kPairs) {
    const Mix& a = table2_mix(pair[0]);
    const Mix& b = table2_mix(pair[1]);
    Mix m;
    m.name = "CMP " + std::to_string(pair[0]) + "+" + std::to_string(pair[1]);
    m.benchmarks = a.benchmarks;
    m.benchmarks.insert(m.benchmarks.end(), b.benchmarks.begin(), b.benchmarks.end());
    m.classification = a.classification + " | " + b.classification;
    out.push_back(std::move(m));
  }
  return out;
}

// -- epilogue helpers -------------------------------------------------------

const char* class_name(IlpClass c) {
  switch (c) {
    case IlpClass::kLow: return "low";
    case IlpClass::kMid: return "mid";
    case IlpClass::kHigh: return "high";
  }
  return "?";
}

void proxy_means_footnote(std::FILE* out, const std::vector<DodSummary>& proxies) {
  std::fprintf(out, "\n%-6s", "proxy");
  for (const auto& d : proxies) std::fprintf(out, " %9.2f", d.mean());
  std::fprintf(out, "   (mean of the result-valid-bit counting proxy)\n");
}

// -- per-preset epilogues ---------------------------------------------------

void fig1_epilogue(const CampaignResult& res, const CampaignSpec&, std::FILE* out) {
  const auto truth = column_dod(res, "Baseline_32", /*proxy=*/false);
  render_dod_histograms(
      out, "Figure 1: instructions dependent on a long-latency load (Baseline_32)", truth);
  proxy_means_footnote(out, column_dod(res, "Baseline_32", /*proxy=*/true));
  std::fprintf(out, "\noverall mean dependents per long-latency load: %.2f\n",
               overall_dod_mean(truth));
}

void fig3_epilogue(const CampaignResult& res, const CampaignSpec&, std::FILE* out) {
  render_dod_histograms(out,
                        "Figure 3: dependents behind a long-latency load with 2-Level "
                        "R-ROB16 (counting mechanism)",
                        column_dod(res, "R-ROB16", /*proxy=*/true));
  const double bp = overall_dod_mean(column_dod(res, "Baseline_32", true));
  const double rp = overall_dod_mean(column_dod(res, "R-ROB16", true));
  std::fprintf(out,
               "\nmean counted dependents per long-latency load: baseline %.2f, R-ROB16 "
               "%.2f (%+.1f%%; paper: +56%%)\n",
               bp, rp, 100.0 * (rp / bp - 1.0));
  const double bt = overall_dod_mean(column_dod(res, "Baseline_32", false));
  const double rt = overall_dod_mean(column_dod(res, "R-ROB16", false));
  std::fprintf(out,
               "mean true transitive dependents:               baseline %.2f, R-ROB16 "
               "%.2f (%+.1f%%)\n",
               bt, rt, 100.0 * (rt / bt - 1.0));
}

void fig6_epilogue(const CampaignResult& res, const CampaignSpec&, std::FILE* out) {
  const u64 repeats = column_counter(res, "P-ROB5", "dodpred.exact_repeats");
  const u64 changes = column_counter(res, "P-ROB5", "dodpred.value_changes");
  const u64 cold = column_counter(res, "P-ROB5", "dodpred.cold_installs");
  const u64 total = repeats + changes + cold;
  if (total > 0)
    std::fprintf(out,
                 "\nDoD last-value predictor: %.1f%% exact repeats, %.1f%% value changes, "
                 "%.1f%% cold (paper argues per-path counts repeat)\n",
                 100.0 * static_cast<double>(repeats) / static_cast<double>(total),
                 100.0 * static_cast<double>(changes) / static_cast<double>(total),
                 100.0 * static_cast<double>(cold) / static_cast<double>(total));
}

void fig7_epilogue(const CampaignResult& res, const CampaignSpec&, std::FILE* out) {
  render_dod_histograms(out,
                        "Figure 7: dependents behind a long-latency load with 2-Level "
                        "P-ROB5 (counting mechanism)",
                        column_dod(res, "P-ROB5", /*proxy=*/true));
  const double base = overall_dod_mean(column_dod(res, "Baseline_32", true));
  const double prob = overall_dod_mean(column_dod(res, "P-ROB5", true));
  std::fprintf(out,
               "\nmean counted dependents per long-latency load: baseline %.2f, P-ROB5 "
               "%.2f (%+.1f%%; paper: +120.31%%)\n",
               base, prob, 100.0 * (prob / base - 1.0));
}

void table2_epilogue(const CampaignResult&, const CampaignSpec& spec, std::FILE* out) {
  // Part 1 reads the single-thread reference cells through the cell store.
  // The campaign has just run the references of every benchmark in its
  // mixes; one outside every mix is simulated here on first use, and is not
  // journalled.
  const u64 insts = spec.lengths.at(0).insts;
  std::fprintf(out, "=== Table 2 (part 1): single-thread classification ===\n");
  std::fprintf(out, "%-10s %8s %8s\n", "benchmark", "ST IPC", "class");
  for (const auto& b : spec_benchmarks())
    std::fprintf(out, "%-10s %8.3f %8s\n", b.name.c_str(), single_thread_ipc(b.name, insts),
                 class_name(b.expected_class));

  std::fprintf(out, "\n=== Table 2 (part 2): simulated benchmark mixes ===\n");
  std::fprintf(out, "%-8s  %-40s %s\n", "mix", "benchmarks", "classification");
  for (const auto& mix : table2_mixes()) {
    std::string benches;
    for (const auto& n : mix.benchmarks) {
      if (!benches.empty()) benches += ", ";
      benches += n;
    }
    std::fprintf(out, "%-8s  %-40s %s\n", mix.name.c_str(), benches.c_str(),
                 mix.classification.c_str());
  }
}

void threshold_epilogue(const CampaignResult& res, const CampaignSpec&, std::FILE* out) {
  const double base = column_average_ft(res, "Baseline_32");
  std::fprintf(out, "=== DoD threshold sweep (average FT over 11 mixes) ===\n");
  std::fprintf(out, "Baseline_32: %.4f\n\n", base);
  std::fprintf(out, "%-10s %12s %12s %12s %12s\n", "threshold", "R-ROB", "vs base", "P-ROB",
               "vs base");
  for (const u32 th : kThresholdSweep) {
    const double r = column_average_ft(res, "R-ROB" + std::to_string(th));
    const double p = column_average_ft(res, "P-ROB" + std::to_string(th));
    std::fprintf(out, "%-10u %12.4f %+11.1f%% %12.4f %+11.1f%%\n", th, r,
                 100.0 * (r / base - 1.0), p, 100.0 * (p / base - 1.0));
  }
}

void early_release_epilogue(const CampaignResult& res, const CampaignSpec&, std::FILE* out) {
  const u64 released = column_counter(res, "R-ROB16+ER", "core.rename.early_released");
  std::fprintf(out,
               "\nregisters released early under R-ROB16+ER across the 11 mixes: %llu\n",
               static_cast<unsigned long long>(released));
}

// -- preset table -----------------------------------------------------------

struct Preset {
  const char* name;
  const char* title;  // FT table heading (nullptr = no FT table)
  const char* summary;
  CampaignSpec (*make)(const RunLengthSpec&);
  void (*epilogue)(const CampaignResult&, const CampaignSpec&, std::FILE*);
};

const Preset kPresets[] = {
    {"fig1", nullptr, "DoD histograms on the baseline machine (Figure 1)",
     [](const RunLengthSpec& rl) {
       return ft_spec("fig1", {col("Baseline_32", baseline32_config())}, rl);
     },
     fig1_epilogue},
    {"fig2", "Figure 2: FT with 2-Level R-ROB",
     "FT of R-ROB16 vs Baseline_32/Baseline_128 (Figure 2)",
     [](const RunLengthSpec& rl) {
       return ft_spec("fig2",
                      {col("Baseline_32", baseline32_config()),
                       col("Baseline_128", baseline128_config()),
                       col("R-ROB16", two_level_config(RobScheme::kReactive, 16))},
                      rl);
     },
     nullptr},
    {"fig3", nullptr, "DoD histograms under R-ROB16 vs baseline (Figure 3)",
     [](const RunLengthSpec& rl) {
       return ft_spec("fig3",
                      {col("Baseline_32", baseline32_config()),
                       col("R-ROB16", two_level_config(RobScheme::kReactive, 16))},
                      rl);
     },
     fig3_epilogue},
    {"fig4", "Figure 4: FT with 2-Level Relaxed R-ROB15",
     "FT of the relaxed reactive scheme (Figure 4)",
     [](const RunLengthSpec& rl) {
       return ft_spec("fig4",
                      {col("Baseline_32", baseline32_config()),
                       col("Baseline_128", baseline128_config()),
                       col("RelaxedR15", two_level_config(RobScheme::kRelaxedReactive, 15))},
                      rl);
     },
     nullptr},
    {"fig5", "Figure 5: FT with 2-Level CDR-ROB15 (32-cycle counting delay)",
     "FT of the counting-delay reactive scheme (Figure 5)",
     [](const RunLengthSpec& rl) {
       return ft_spec("fig5",
                      {col("Baseline_32", baseline32_config()),
                       col("Baseline_128", baseline128_config()),
                       col("CDR-ROB15", two_level_config(RobScheme::kCdr, 15))},
                      rl);
     },
     nullptr},
    {"fig6", "Figure 6: FT with 2-Level P-ROB",
     "FT of the predictive scheme + predictor quality (Figure 6)",
     [](const RunLengthSpec& rl) {
       return ft_spec("fig6",
                      {col("Baseline_32", baseline32_config()),
                       col("Baseline_128", baseline128_config()),
                       col("P-ROB3", two_level_config(RobScheme::kPredictive, 3)),
                       col("P-ROB5", two_level_config(RobScheme::kPredictive, 5))},
                      rl);
     },
     fig6_epilogue},
    {"fig7", nullptr, "DoD histograms under P-ROB5 vs baseline (Figure 7)",
     [](const RunLengthSpec& rl) {
       return ft_spec("fig7",
                      {col("Baseline_32", baseline32_config()),
                       col("P-ROB5", two_level_config(RobScheme::kPredictive, 5))},
                      rl);
     },
     fig7_epilogue},
    {"table2", nullptr, "Single-thread classification and the 11 mixes (Table 2)",
     [](const RunLengthSpec& rl) {
       return ft_spec("table2", {col("Baseline_32", baseline32_config())}, rl);
     },
     table2_epilogue},
    {"ablation_threshold", nullptr, "DoD-threshold sweep for R-ROB and P-ROB (§5.2)",
     [](const RunLengthSpec& rl) {
       std::vector<ConfigColumn> cols = {col("Baseline_32", baseline32_config())};
       for (const u32 th : kThresholdSweep)
         cols.push_back(col("R-ROB" + std::to_string(th),
                            two_level_config(RobScheme::kReactive, th)));
       for (const u32 th : kThresholdSweep)
         cols.push_back(col("P-ROB" + std::to_string(th),
                            two_level_config(RobScheme::kPredictive, th)));
       return ft_spec("ablation_threshold", std::move(cols), rl);
     },
     threshold_epilogue},
    {"ablation_fetch_policy", "Fetch-policy ablation (Baseline_32 machine)",
     "DCRA vs ICOUNT/STALL/FLUSH/round-robin",
     [](const RunLengthSpec& rl) {
       return ft_spec("ablation_fetch_policy",
                      {col("DCRA", with_policy(FetchPolicyKind::kDcra)),
                       col("ICOUNT", with_policy(FetchPolicyKind::kIcount)),
                       col("STALL", with_policy(FetchPolicyKind::kStall)),
                       col("FLUSH", with_policy(FetchPolicyKind::kFlush)),
                       col("RoundRobin", with_policy(FetchPolicyKind::kRoundRobin))},
                      rl);
     },
     nullptr},
    {"ablation_regfile", "Register-file ablation: per-thread (default) vs shared pool",
     "Per-thread vs shared physical register files (DESIGN.md §5)",
     [](const RunLengthSpec& rl) {
       return ft_spec(
           "ablation_regfile",
           {col("B32/perthr", baseline32_config()),
            col("B32/shared", with_shared_regfile(baseline32_config())),
            col("R16/perthr", two_level_config(RobScheme::kReactive, 16)),
            col("R16/shared", with_shared_regfile(two_level_config(RobScheme::kReactive, 16))),
            col("B128/perthr", baseline128_config()),
            col("B128/shared", with_shared_regfile(baseline128_config()))},
           rl);
     },
     nullptr},
    {"ablation_early_release", "Early-register-release ablation",
     "L2-miss-driven early register deallocation (ref [24])",
     [](const RunLengthSpec& rl) {
       return ft_spec(
           "ablation_early_release",
           {col("Baseline_32", baseline32_config()),
            col("R-ROB16", two_level_config(RobScheme::kReactive, 16)),
            col("R-ROB16+ER",
                with_early_release(two_level_config(RobScheme::kReactive, 16))),
            col("B32+ER", with_early_release(baseline32_config()))},
           rl);
     },
     early_release_epilogue},
    {"ablation_adaptive", "Adaptive-ROB (ref [23]) vs the two-level design",
     "Per-thread adaptive ROB growth (ref [23]) vs R-ROB16",
     [](const RunLengthSpec& rl) {
       return ft_spec("ablation_adaptive",
                      {col("Baseline_32", baseline32_config()),
                       col("Adaptive", two_level_config(RobScheme::kAdaptive, 16)),
                       col("R-ROB16", two_level_config(RobScheme::kReactive, 16))},
                      rl);
     },
     nullptr},
    {"trace_synth", "Trace replay: two-level vs baseline on a synthesized trace mix",
     "Trace-frontend exercise: four synthesized ChampSim traces replayed per thread",
     [](const RunLengthSpec& rl) {
       // 500-record traces are shorter than any run length this preset is
       // used at, so loop-rewind replay is always exercised.
       CampaignSpec spec;
       spec.name = "trace_synth";
       spec.columns = {col("Baseline_32", baseline32_config()),
                       col("R-ROB16", two_level_config(RobScheme::kReactive, 16))};
       spec.mixes = {trace::workload_mix(
           "tracegen:art@500@11,tracegen:mcf@500@13,"
           "tracegen:mgrid@500@17,tracegen:crafty@500@19")};
       spec.lengths = {rl};
       return spec;
     },
     nullptr},
    {"cmp_mix", "CMP mix: 2 cores x 4 threads, shared LLC + banked DRAM",
     "Two SMT cores behind a shared LLC/DRAM backend on paired Table 2 mixes",
     [](const RunLengthSpec& rl) {
       CampaignSpec spec;
       spec.name = "cmp_mix";
       spec.columns = {col("CMP2-Baseline_32", cmp_config(2, RobScheme::kBaseline, 0)),
                       col("CMP2-R-ROB16", cmp_config(2, RobScheme::kReactive, 16))};
       spec.mixes = cmp_pair_mixes();
       spec.lengths = {rl};
       return spec;
     },
     nullptr},
    {"cmp_trace", "CMP trace replay: 2 cores x 2 threads on synthesized traces",
     "Trace frontend on a 2-core CMP: per-core trace assignment over the shared backend",
     [](const RunLengthSpec& rl) {
       CampaignSpec spec;
       spec.name = "cmp_trace";
       auto cmp2 = [](RobScheme s, u32 th) {
         MachineConfig cfg = cmp_config(2, s, th);
         cfg.num_threads = 2;  // 2 cores x 2 threads <- the 4-entry trace list
         return cfg;
       };
       spec.columns = {col("CMP2-Baseline_32", cmp2(RobScheme::kBaseline, 0)),
                       col("CMP2-R-ROB16", cmp2(RobScheme::kReactive, 16))};
       spec.mixes = {trace::workload_mix(
           "tracegen:art@500@11,tracegen:mcf@500@13,"
           "tracegen:mgrid@500@17,tracegen:crafty@500@19")};
       spec.lengths = {rl};
       return spec;
     },
     nullptr},
};

const Preset& find_preset(const std::string& name) {
  for (const Preset& p : kPresets)
    if (name == p.name) return p;
  throw std::invalid_argument("unknown preset: " + name);
}

}  // namespace

const std::vector<std::string>& preset_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Preset& p : kPresets) out.emplace_back(p.name);
    return out;
  }();
  return names;
}

bool is_preset(const std::string& name) {
  for (const Preset& p : kPresets)
    if (name == p.name) return true;
  return false;
}

std::string preset_summary(const std::string& name) { return find_preset(name).summary; }

CampaignSpec preset_campaign(const std::string& name, const RunLengthSpec& length) {
  return find_preset(name).make(length);
}

PresetRun preset_run(const std::string& name, const RunLengthSpec& length) {
  const Preset& preset = find_preset(name);
  return {preset.make(length), preset.title != nullptr,
          preset.title == nullptr ? "" : preset.title, preset.epilogue};
}

}  // namespace tlrob::runner

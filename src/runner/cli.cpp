#include "runner/cli.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "sim/config_override.hpp"
#include "trace/resolve.hpp"

namespace tlrob::runner {

namespace {

ConfigColumn scheme_column(const std::string& scheme, u32 threshold) {
  if (scheme == "baseline32") return {"Baseline_32", baseline32_config(), 0};
  if (scheme == "baseline128") return {"Baseline_128", baseline128_config(), 0};
  const RobScheme kind = parse_scheme(scheme);  // throws on unknown names
  std::string prefix;
  switch (kind) {
    case RobScheme::kReactive: prefix = "R-ROB"; break;
    case RobScheme::kRelaxedReactive: prefix = "RelaxedR"; break;
    case RobScheme::kCdr: prefix = "CDR-ROB"; break;
    case RobScheme::kPredictive: prefix = "P-ROB"; break;
    case RobScheme::kAdaptive: prefix = "Adaptive"; break;
    case RobScheme::kBaseline: return {"Baseline_32", baseline32_config(), 0};
  }
  return {prefix + std::to_string(threshold), two_level_config(kind, threshold), 0};
}

}  // namespace

CampaignSpec custom_campaign(const Options& opts) {
  CampaignSpec spec;
  spec.name = opts.get("name", "custom");

  auto schemes = opts.get_list("schemes");
  if (schemes.empty()) schemes = {"baseline32", "rrob"};
  std::vector<u64> thresholds = opts.get_u64_list("thresholds");
  if (thresholds.empty()) thresholds = {16};
  for (const auto& scheme : schemes) {
    if (scheme == "baseline32" || scheme == "baseline128" || scheme == "baseline") {
      spec.columns.push_back(scheme_column(scheme, 0));
      continue;
    }
    for (const u64 th : thresholds)
      spec.columns.push_back(scheme_column(scheme, static_cast<u32>(th)));
  }

  // The workload: an explicit --workload list (its length sets the thread
  // count), the --mixes subset of Table 2, or all 11 mixes.
  const std::string workload = opts.get("workload", "");
  const std::vector<u64> mix_ids = opts.get_u64_list("mixes");
  if (!workload.empty()) {
    if (!mix_ids.empty())
      throw std::invalid_argument("--workload and --mixes are mutually exclusive");
    spec.mixes = {trace::workload_mix(workload)};
  } else if (mix_ids.empty()) {
    spec.mixes = table2_mixes();
  } else {
    // table2_mix range-checks; the clamp keeps 2^32+1 out of range.
    for (const u64 id : mix_ids)
      spec.mixes.push_back(table2_mix(static_cast<u32>(std::min<u64>(id, 0xffffffffu))));
  }

  // CMP topology applies uniformly across columns: --cores N gives every
  // column an N-core machine whose threads the workload list fills
  // core-major (every Table 2 mix has four entries, so 2 cores run 2
  // threads each), and --llc/--dram shape the shared backend.
  for (auto& c : spec.columns) {
    c.config.num_cores = static_cast<u32>(opts.get_u64("cores", c.config.num_cores));
    c.config.num_threads = trace::threads_per_core(spec.mixes.front(), c.config.num_cores);
    if (opts.has("llc")) apply_llc_spec(c.config.llc, opts.get("llc"));
    if (opts.has("dram")) apply_dram_spec(c.config.dram, opts.get("dram"));
  }

  spec.lengths = {{opts.get_u64("insts", 120000), opts.get_u64("warmup", 60000)}};
  spec.seed = opts.get_u64("seed", spec.seed);
  spec.per_job_seeds = opts.get_bool("per_job_seeds", false);
  spec.max_cycles = opts.get_u64("max_cycles", 0);
  spec.sample_interval = opts.get_u64("sample_interval", 0);
  spec.sample_dir = opts.get("sample_dir", "");
  return spec;
}

std::vector<std::string> preset_list(const std::string& arg) {
  if (arg == "all") return preset_names();
  std::vector<std::string> names;
  size_t start = 0;
  while (true) {
    const size_t comma = arg.find(',', start);
    names.push_back(arg.substr(start, comma - start));  // npos - start: to the end
    if (!is_preset(names.back()))
      throw std::invalid_argument("unknown preset '" + names.back() + "' (try --list)");
    if (comma == std::string::npos) return names;
    start = comma + 1;
  }
}

int run_from_options(const std::string& preset, const Options& opts) {
  // Every option is read, and the command line validated, before any sink
  // file is created.
  const std::vector<std::string> names =
      preset.empty() ? std::vector<std::string>{} : preset_list(preset);
  const bool render = !opts.get_bool("no_render", false);
  const u32 jobs = WorkStealingPool::resolve_threads(static_cast<u32>(opts.get_u64("jobs", 0)));
  const std::string manifest_path = opts.get("manifest", "");
  const bool resume = opts.get_bool("resume", false);
  const bool want_json = opts.has("json"), want_csv = opts.has("csv");
  CampaignSpec custom;
  PresetOptions popts;
  if (preset.empty()) {
    custom = custom_campaign(opts);
  } else {
    popts.length = {opts.get_u64("insts", 120000), opts.get_u64("warmup", 60000)};
    popts.jobs = jobs;
    popts.manifest_path = manifest_path;
    popts.resume = resume;
    popts.render = render;
    popts.sample_interval = opts.get_u64("sample_interval", 0);
    popts.sample_dir = opts.get("sample_dir", "");
    popts.workload = opts.get("workload", "");
  }
  opts.require_all_read(preset.empty() ? "" : " (or not used by presets)");

  // Structured sinks ("-" = stdout).
  std::vector<std::unique_ptr<std::ofstream>> files;
  std::vector<std::unique_ptr<ResultSink>> owned;
  auto open_sink = [&](const std::string& path, bool csv) -> ResultSink* {
    std::ostream* os = &std::cout;
    if (path != "-") {
      files.push_back(std::make_unique<std::ofstream>(path, std::ios::trunc));
      if (!files.back()->is_open())
        throw std::runtime_error("cannot open sink file: " + path);
      os = files.back().get();
    }
    if (csv)
      owned.push_back(std::make_unique<CsvSink>(*os));
    else
      owned.push_back(std::make_unique<JsonlSink>(*os));
    return owned.back().get();
  };

  std::vector<ResultSink*> sinks;
  if (want_json) sinks.push_back(open_sink(opts.get("json"), /*csv=*/false));
  if (want_csv) sinks.push_back(open_sink(opts.get("csv"), /*csv=*/true));

  auto report = [jobs](const std::string& name, const CampaignResult& result) {
    std::cerr << "campaign " << name << ": " << result.records.size() << " cells, "
              << result.ok << " ok (" << result.deduplicated << " deduplicated), "
              << result.failed << " failed, " << result.resumed << " resumed (" << jobs
              << " worker" << (jobs == 1 ? "" : "s") << ")\n";
    return result.failed > 0;
  };

  if (preset.empty()) {
    EngineOptions eng;
    eng.jobs = jobs;
    eng.manifest_path = manifest_path;
    eng.resume = resume;
    FtTableSink table(stdout);
    if (render) eng.sinks.push_back(&table);
    for (ResultSink* s : sinks) eng.sinks.push_back(s);
    return report(custom.name, run_campaign(custom, eng)) ? 1 : 0;
  }

  // Presets run in order in this process, so they share the cell memo; the
  // sinks and the manifest see what separate runs would have written, one
  // after another.
  popts.extra_sinks = sinks;
  bool any_failed = false;
  for (size_t i = 0; i < names.size(); ++i) {
    popts.append_manifest = i > 0;
    any_failed |= report(names[i], run_preset(names[i], popts));
  }
  return any_failed ? 1 : 0;
}

int preset_main(const std::string& preset, int argc, const char* const* argv) {
  return cli_main(
      [&] { return run_from_options(preset, Options::from_args(argc, argv, kCampaignFlags)); });
}

}  // namespace tlrob::runner

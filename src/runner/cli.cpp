#include "runner/cli.hpp"

#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "sim/config_override.hpp"
#include "trace/resolve.hpp"

namespace tlrob::runner {

RunLengthSpec run_length(const Options& opts) {
  RunLengthSpec length;
  length.insts = opts.get_u64("insts", length.insts);
  length.warmup = opts.get_u64("warmup", length.warmup);
  if (length.insts == 0)
    throw std::invalid_argument("option insts: must be nonzero (a run that commits nothing "
                                "has no IPC)");
  return length;
}

CampaignSpec custom_campaign(const Options& opts) {
  CampaignSpec spec;
  spec.name = opts.get("name", "custom");

  auto schemes = opts.get_list("schemes");
  if (schemes.empty()) schemes = {"baseline32", "rrob"};
  std::vector<u32> thresholds = opts.get_u32_list("thresholds");
  if (thresholds.empty()) thresholds = {16};
  for (const auto& scheme : schemes) {
    if (scheme == "baseline128") {
      spec.columns.push_back({"Baseline_128", baseline128_config(), 0});
      continue;
    }
    const RobScheme kind = parse_scheme(scheme == "baseline32" ? "baseline" : scheme);
    const std::string prefix = enum_row(kRobSchemeNames, kind).column;
    if (kind == RobScheme::kBaseline)
      spec.columns.push_back({prefix, baseline32_config(), 0});
    else
      for (const u32 th : thresholds)
        spec.columns.push_back({prefix + std::to_string(th), two_level_config(kind, th), 0});
  }

  // The workload: the --mixes subset of Table 2, or all 11 mixes. An
  // explicit --workload list replaces them in apply_shared_options, which
  // then also sizes the machines.
  const std::vector<u32> mix_ids = opts.get_u32_list("mixes");
  if (opts.has("workload")) {
    if (!mix_ids.empty())
      throw std::invalid_argument("--workload and --mixes are mutually exclusive");
  } else if (mix_ids.empty()) {
    spec.mixes = table2_mixes();
  } else {
    for (const u32 id : mix_ids) spec.mixes.push_back(table2_mix(id));
  }

  // CMP topology applies uniformly across columns: --cores N gives every
  // column an N-core machine whose threads the workload list fills
  // core-major (every Table 2 mix has four entries, so 2 cores run 2
  // threads each), and --llc/--dram shape the shared backend.
  for (auto& c : spec.columns) {
    c.config.num_cores = opts.get_u32("cores", c.config.num_cores);
    if (!spec.mixes.empty())
      c.config.num_threads = trace::threads_per_core(spec.mixes.front(), c.config.num_cores);
    if (opts.has("llc")) apply_llc_spec(c.config, opts.get("llc"));
    if (opts.has("dram")) apply_dram_spec(c.config, opts.get("dram"));
  }

  spec.lengths = {run_length(opts)};
  spec.seed = opts.get_u64("seed", spec.seed);
  spec.max_cycles = opts.get_u64("max_cycles", 0);
  return spec;
}

namespace {

/// The options every campaign of one command line shares: --workload
/// replaces each campaign's mixes with one workload list and sizes every
/// column's machine to it, --sample-interval is every column's sampling
/// period and --sample-dir where the series go.
void apply_shared_options(std::vector<PresetRun>& runs, const Options& opts) {
  std::optional<Mix> workload;
  if (opts.has("workload")) workload = trace::workload_mix(opts.get("workload"));
  const u64 sample_interval = opts.get_u64("sample_interval", 0);
  const std::string sample_dir = opts.get("sample_dir", "");
  if (!sample_dir.empty() && sample_interval == 0)
    throw std::invalid_argument(
        "--sample-dir needs a nonzero --sample-interval (there is no series to write)");
  for (PresetRun& run : runs) {
    if (workload) run.spec.mixes = {*workload};
    for (ConfigColumn& c : run.spec.columns) {
      if (workload) c.config.num_threads = trace::threads_per_core(*workload, c.config.num_cores);
      c.config.telemetry.sample_interval = sample_interval;
    }
    run.spec.sample_dir = sample_dir;
  }
}

}  // namespace

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

std::vector<PresetRun> campaign_list(const std::string& preset, const Options& opts) {
  std::vector<PresetRun> runs;
  if (preset.empty()) {
    runs.emplace_back().spec = custom_campaign(opts);
  } else {
    const RunLengthSpec length = run_length(opts);
    for (const std::string& name : preset_list(preset)) runs.push_back(preset_run(name, length));
  }
  apply_shared_options(runs, opts);
  return runs;
}

int run_from_options(const std::string& preset, const Options& opts) {
  // Every option is read, and the command line validated, before any sink
  // file is created.
  const std::vector<PresetRun> runs = campaign_list(preset, opts);
  const bool render = !opts.get_bool("no_render", false);
  const u32 jobs = opts.get_u32("jobs", 0);
  const std::string manifest_path = opts.get("manifest", "");
  const bool resume = opts.get_bool("resume", false);
  const bool want_json = opts.has("json");
  const std::string json = opts.get("json", "");
  opts.require_all_read(preset.empty() ? "" : " (or not used by presets)");

  // Every campaign appends to the journal; a run not resumed starts it empty.
  if (!manifest_path.empty() && !resume && !std::ofstream(manifest_path, std::ios::trunc))
    throw std::runtime_error("cannot open manifest: " + manifest_path);

  // The record sink ("-" = stdout).
  std::ofstream file;
  if (want_json && json != "-") {
    file.open(json, std::ios::trunc);
    if (!file.is_open()) throw std::runtime_error("cannot open sink file: " + json);
  }
  std::optional<JsonlSink> sink;
  if (want_json) sink.emplace(json == "-" ? std::cout : file);
  // A record sink on stdout keeps it to itself: the rendered tables and
  // epilogues go to stderr, so every stdout line stays one record.
  std::FILE* const text = want_json && json == "-" ? stderr : stdout;

  // The campaigns run in order in this process, so they share the cell
  // store; the sinks and the manifest see what separate runs would have
  // written, one after another.
  bool any_failed = false;
  for (const PresetRun& run : runs) {
    EngineOptions eng;
    eng.jobs = jobs;
    eng.manifest_path = manifest_path;
    eng.resume = resume;
    FtTableSink table(text, run.title);
    if (render && run.table) eng.sinks.push_back(&table);
    if (sink) eng.sinks.push_back(&*sink);

    const CampaignResult result = run_campaign(run.spec, eng);
    if (render && run.epilogue != nullptr) run.epilogue(result, run.spec, text);
    std::cerr << "campaign " << run.spec.name << ": " << result.records.size() << " cells, "
              << result.ok << " ok (" << result.deduplicated << " deduplicated), "
              << result.failed << " failed, " << result.resumed << " resumed ("
              << result.workers << " worker" << (result.workers == 1 ? "" : "s") << ")\n";
    any_failed |= result.failed > 0;
  }
  return any_failed ? 1 : 0;
}

int preset_main(const std::string& preset, int argc, const char* const* argv) {
  return cli_main(
      [&] { return run_from_options(preset, Options::from_args(argc, argv, kCampaignFlags)); });
}

}  // namespace tlrob::runner

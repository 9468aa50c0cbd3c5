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

/// Flags that never take a following-token value.
bool is_bare_flag(const std::string& key) {
  return key == "resume" || key == "per_job_seeds" || key == "no_render" || key == "list" ||
         key == "help";
}

std::string normalise_key(std::string key) {
  std::replace(key.begin(), key.end(), '-', '_');
  return key;
}

}  // namespace

Options parse_cli_args(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.size() > 1 && tok[0] == '-' && tok.find('=') == std::string::npos) {
      size_t dashes = 0;
      while (dashes < tok.size() && tok[dashes] == '-') ++dashes;
      const std::string key = normalise_key(tok.substr(dashes));
      // A following token is this option's value unless it is itself an
      // option; a lone "-" is a value (stdout for --json/--csv).
      const std::string next = i + 1 < argc ? argv[i + 1] : "";
      const bool next_is_value = i + 1 < argc && (next == "-" || next[0] != '-') &&
                                 next.find('=') == std::string::npos;
      if (!is_bare_flag(key) && next_is_value) {
        tokens.push_back(key + "=" + argv[++i]);
        continue;
      }
      tokens.push_back("--" + key);
      continue;
    }
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      size_t dashes = 0;
      while (dashes < eq && tok[dashes] == '-') ++dashes;
      tokens.push_back(normalise_key(tok.substr(dashes, eq - dashes)) + tok.substr(eq));
      continue;
    }
    tokens.push_back(tok);  // positional
  }
  return Options::from_tokens(tokens);
}

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
  std::vector<u32> thresholds;
  for (const auto& t : opts.get_list("thresholds"))
    thresholds.push_back(static_cast<u32>(std::stoul(t)));
  if (thresholds.empty()) thresholds = {16};
  for (const auto& scheme : schemes) {
    if (scheme == "baseline32" || scheme == "baseline128" || scheme == "baseline") {
      spec.columns.push_back(scheme_column(scheme, 0));
      continue;
    }
    for (const u32 th : thresholds) spec.columns.push_back(scheme_column(scheme, th));
  }

  // CMP topology applies uniformly across columns: --cores N gives every
  // column an N-core machine, --llc/--dram shape the shared backend. The
  // machine-wide thread count is preserved — N cores split the column's
  // threads (4-thread Table 2 mixes become 2 cores x 2 threads) — so the
  // same mixes drive any core count.
  for (auto& c : spec.columns) {
    const u32 cores = static_cast<u32>(opts.get_u64("cores", c.config.num_cores));
    if (cores > 1) {
      if (c.config.num_threads % cores != 0)
        throw std::invalid_argument("threads=" + std::to_string(c.config.num_threads) +
                                    " not divisible by cores=" + std::to_string(cores));
      c.config.num_threads /= cores;
    }
    c.config.num_cores = cores;
    if (opts.has("llc")) apply_llc_spec(c.config.llc, opts.get("llc"));
    if (opts.has("dram")) apply_dram_spec(c.config.dram, opts.get("dram"));
  }

  const std::string workload = opts.get("workload", "");
  const auto mix_ids = opts.get_list("mixes");
  if (!workload.empty()) {
    if (!mix_ids.empty())
      throw std::invalid_argument("--workload and --mixes are mutually exclusive");
    const Mix mix = trace::workload_mix(workload);
    // The workload list sets the thread count: a 2-entry trace mix runs a
    // 2-thread machine under every column. On a CMP the list is core-major
    // and must divide evenly into per-core thread counts.
    for (auto& c : spec.columns) {
      const u32 cores = c.config.num_cores == 0 ? 1 : c.config.num_cores;
      if (mix.benchmarks.size() % cores != 0)
        throw std::invalid_argument("workload size " + std::to_string(mix.benchmarks.size()) +
                                    " not divisible by cores=" + std::to_string(cores));
      c.config.num_threads = static_cast<u32>(mix.benchmarks.size() / cores);
    }
    spec.mixes = {mix};
  } else if (mix_ids.empty()) {
    spec.mixes = table2_mixes();
  } else {
    for (const auto& id : mix_ids)
      spec.mixes.push_back(table2_mix(static_cast<u32>(std::stoul(id))));
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
  if (const std::vector<std::string> unread = opts.unread_keys(); !unread.empty()) {
    std::string flag = unread.front();
    std::replace(flag.begin(), flag.end(), '_', '-');
    throw std::invalid_argument("unknown option --" + flag +
                                (preset.empty() ? "" : " (or not used by presets)"));
  }

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
  try {
    return run_from_options(preset, parse_cli_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace tlrob::runner

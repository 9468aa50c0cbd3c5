// Full simulator driver (the sim-outorder of this repository): run any
// workload on any machine configuration and dump every statistic the
// machine collects.
//
//   ./simulate [workload names ...] [mix=N] [machine knobs] [run knobs]
//
// Workload selection: either positional names (SPEC profiles such as `art`,
// or trace:<file> / tracegen:<profile>@<records>[@<seed>] tokens, see
// src/trace/resolve.hpp), or `mix=N` for a Table 2 mix (default mix=1).
// `threads=` is the machine-wide thread count (default: the list length);
// the list is padded with copies of its last entry or trimmed to it. The
// list is core-major: cores= splits it over the cores
// (trace::threads_per_core), so `simulate mix=1 cores=2` runs 2 cores x 2
// threads over the same four benchmarks, and `simulate mix=2 cores=4
// threads=16` runs 4 cores x 4 threads.
//
// Run knobs: insts=N (default 120000), warmup=N (default 60000),
// max_cycles=N, stats=0|1 (dump all counters),
// trace=START:END (core 0's pipeline event log for that cycle window, to
// stderr).
// Machine knobs: see sim/config_override.hpp (scheme=, threshold=, policy=,
// rob1=, rob2=, l2_kb=, mem_lat=, seed=, ...). CMP knobs (cores=N,
// llc=size_kb[:ways[:lat[:mshrs]]], dram=ch[:banks[:tcas[:trcd[:trp]]]])
// shape the machine.
//
// Observability knobs (src/obs):
//   sample=N           interval telemetry every N cycles
//   sample_out=PATH    write the machine-wide series as JSON lines ("-" = stdout)
//   sample_csv=PATH    write the series as CSV ("-" = stdout)
//   trace_json=PATH    Chrome trace-event JSON (open in ui.perfetto.dev): one
//                      process per core plus, on a machine with a shared
//                      backend, a "shared backend" process (LLC MSHR-pool
//                      occupancy, per-bank DRAM row state)
//   profile=1          host-side wall-time profile of the whole run (warmup
//                      included) by pipeline stage, summed over every core,
//                      to stderr (obs/self_profile.hpp), plus how many events
//                      took the event wheel's overflow path
//
// Options follow the common grammar (key=value, --key=value, --key value;
// common/config.hpp). An unknown key, a bad value or a failed run prints
// "error: ..." and exits with status 2. So does a run in which no thread
// committed insts= before max_cycles=, after printing what it did.
//
// Examples:
//   ./simulate mix=1 scheme=rrob threshold=16
//   ./simulate art art mgrid crafty scheme=prob threshold=5 stats=1
//   ./simulate mcf threads=1 rob1=128 policy=icount
//   ./simulate tracegen:art@20000 tracegen:mcf@20000 scheme=rrob
//   ./simulate mix=2 scheme=rrob sample=1000 sample_out=series.jsonl
//       trace_json=trace.json
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/self_profile.hpp"
#include "sim/cmp.hpp"
#include "sim/config_override.hpp"
#include "sim/experiment.hpp"
#include "trace/resolve.hpp"

using namespace tlrob;

namespace {

int simulate(const Options& opts) {
  // --- workload ------------------------------------------------------------
  std::string workload = opts.has("mix") ? "mix:" + opts.get("mix") : "";
  for (const std::string& name : opts.positional()) {
    if (opts.has("mix"))
      throw std::invalid_argument("mix= and positional workload names are mutually exclusive");
    workload += (workload.empty() ? "" : ",") + name;
  }
  Mix mix = trace::workload_mix(workload.empty() ? "mix:1" : workload);

  // --- machine ----------------------------------------------------------------
  MachineConfig cfg = two_level_config(parse_scheme(opts.get("scheme", "baseline")), 16);
  cfg.num_threads = static_cast<u32>(mix.benchmarks.size());
  cfg = apply_overrides(cfg, opts);
  // num_threads so far is machine-wide (threads= or the list length).
  mix.benchmarks.resize(cfg.num_threads, mix.benchmarks.back());
  cfg.num_threads = trace::threads_per_core(mix, cfg.num_cores);

  const u64 insts = opts.get_u64("insts", 120000);
  const u64 warmup = opts.get_u64("warmup", 60000);
  const u64 max_cycles = opts.get_u64("max_cycles", 0);
  const bool dump_stats = opts.get_bool("stats", false);

  // --- observability -------------------------------------------------------
  cfg.telemetry.sample_interval = opts.get_u64("sample", cfg.telemetry.sample_interval);
  const bool profile = opts.get_bool("profile", false);
  const std::string sample_out = opts.get("sample_out"), sample_csv = opts.get("sample_csv");
  const std::string trace_json = opts.get("trace_json"), trace_window = opts.get("trace");
  if ((!sample_out.empty() || !sample_csv.empty()) && cfg.telemetry.sample_interval == 0)
    cfg.telemetry.sample_interval = 1000;  // asking for the series implies sampling
  Cycle window_lo = 0, window_hi = 0;
  if (!trace_window.empty()) {
    const auto colon = trace_window.find(':');
    window_lo = parse_u64(trace_window.substr(0, colon), "option trace");
    window_hi = colon == std::string::npos
                    ? window_lo + 200
                    : parse_u64(trace_window.substr(colon + 1), "option trace");
  }
  opts.require_all_read();

  // Sinks open before the run, so a bad path fails fast; "-" is stdout.
  std::vector<std::unique_ptr<std::ofstream>> files;
  auto open_sink = [&files](const std::string& path) -> std::ostream* {
    if (path.empty()) return nullptr;
    if (path == "-") return &std::cout;
    files.push_back(std::make_unique<std::ofstream>(path, std::ios::trunc));
    if (!files.back()->is_open()) throw std::runtime_error("cannot open '" + path + "'");
    return files.back().get();
  };
  std::ostream* const sample_os = open_sink(sample_out);
  std::ostream* const csv_os = open_sink(sample_csv);
  std::ostream* const trace_os = open_sink(trace_json);

  const std::vector<Benchmark> benches = trace::resolve_mix_benchmarks(mix);
  std::printf("%s", describe(cfg).c_str());
  std::printf("workload              ");
  for (const auto& b : benches) std::printf(" %s", b.name.c_str());
  std::printf("\nrun                    %llu insts after %llu warmup\n\n",
              static_cast<unsigned long long>(insts),
              static_cast<unsigned long long>(warmup));

  CmpMachine machine(cfg, benches);
  if (!trace_window.empty()) machine.core(0).tracer().attach(&std::cerr, window_lo, window_hi);
  std::vector<obs::ChromeTraceWriter> core_writers(trace_os != nullptr ? cfg.num_cores : 0);
  obs::ChromeTraceWriter backend_writer;
  if (trace_os != nullptr) {
    std::vector<obs::ChromeTraceWriter*> per_core;
    for (auto& w : core_writers) per_core.push_back(&w);
    machine.attach_chrome_trace(per_core, &backend_writer);
  }
  std::optional<obs::SelfProfiler> profiler;
  if (profile) profiler.emplace();
  const RunResult r = machine.run(insts, max_cycles, warmup);
  if (profiler) profiler->stop();

  if (sample_os != nullptr) r.samples.write_jsonl(*sample_os);
  if (csv_os != nullptr) r.samples.write_csv(*csv_os);
  if (trace_os != nullptr) {
    std::vector<const obs::ChromeTraceWriter*> all;
    for (const auto& w : core_writers) all.push_back(&w);
    if (machine.shared_memory() != nullptr) all.push_back(&backend_writer);
    obs::ChromeTraceWriter::write_merged(*trace_os, all);
  }
  if (profiler) {
    profiler->print(std::cerr, machine.executed_cycles());
    u64 overflowed = 0;
    for (u32 c = 0; c < machine.num_cores(); ++c)
      overflowed += machine.core(c).event_wheel().overflowed_total();
    std::fprintf(stderr, "event wheel    %10llu events scheduled past the %u-cycle horizon\n",
                 static_cast<unsigned long long>(overflowed),
                 machine.core(0).event_wheel().horizon());
  }

  std::printf("%-10s %10s %10s\n", "thread", "committed", "IPC");
  for (const auto& t : r.threads)
    std::printf("%-10s %10llu %10.4f\n", t.benchmark.c_str(),
                static_cast<unsigned long long>(t.committed), t.ipc);
  std::printf("%-10s %10llu %10.4f  (sum)\n", "cycles",
              static_cast<unsigned long long>(r.cycles), r.total_throughput());

  if (cfg.rob.scheme != RobScheme::kBaseline) {
    // rob2.busy_cycles sums over the cores, so it is out of core-cycles.
    const u64 busy = run_counter(r, "rob2.busy_cycles");
    const u64 core_cycles = r.cycles * cfg.num_cores;
    const double pct = core_cycles == 0 ? 0.0
                                        : 100.0 * static_cast<double>(busy) /
                                              static_cast<double>(core_cycles);
    std::printf("\nsecond level: %llu allocations, busy %llu/%llu %s (%.1f%%)\n",
                static_cast<unsigned long long>(run_counter(r, "rob2.allocations")),
                static_cast<unsigned long long>(busy),
                static_cast<unsigned long long>(core_cycles),
                cfg.num_cores > 1 ? "core-cycles" : "cycles", pct);
  }
  if (r.dod_true.total_samples() > 0)
    std::printf("long-latency loads: %llu, mean DoD %.2f (proxy %.2f)\n",
                static_cast<unsigned long long>(r.dod_true.total_samples()),
                r.dod_true.mean(), r.dod_proxy.mean());

  if (dump_stats) {
    std::printf("\n--- all counters ---\n");
    for (const auto& [k, v] : r.counters)
      std::printf("%-44s %llu\n", k.c_str(), static_cast<unsigned long long>(v));
  }
  // What the run did is printed above; a run no thread finished still fails.
  if (const std::string error = r.cycle_cap_error(insts); !error.empty())
    throw std::runtime_error(error);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli_main(
      [&] { return simulate(Options::from_args(argc, argv, {"stats", "profile"})); });
}

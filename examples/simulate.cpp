// Full simulator driver (the sim-outorder of this repository): run any
// benchmark combination on any machine configuration and dump every
// statistic the core collects.
//
//   ./simulate [bench names ...] [mix=N] [machine knobs] [run knobs]
//
// Workload selection: either positional SPEC profile names (1..N, one per
// hardware thread, e.g. `./simulate art mgrid crafty parser`) or `mix=N`
// for a Table 2 mix. `threads=` defaults to the number of named benchmarks.
//
// Run knobs: insts=N (default 120000), warmup=N (default 60000),
// max_cycles=N, stats=0|1 (dump all counters),
// trace=START:END (pipeline event trace for that cycle window, to stderr).
// Machine knobs: see sim/config_override.hpp (scheme=, threshold=, policy=,
// rob1=, rob2=, l2_kb=, mem_lat=, seed=, ...). CMP knobs (cores=N,
// llc=size_kb[:ways[:lat[:mshrs]]], dram=ch[:banks[:tcas[:trcd[:trp]]]])
// shape the machine; the workload list is core-major and cores= splits the
// machine-wide thread count, so `simulate mix=1 cores=2` runs 2 cores x 2
// threads over the same four benchmarks. Pipeline trace / Chrome trace /
// profile attach to core 0. An unknown key is an error (exit status 2).
//
// Observability knobs (src/obs):
//   sample=N           interval telemetry every N cycles
//   sample_out=PATH    write the series as JSON lines ("-" = stdout)
//   sample_csv=PATH    write the series as CSV ("-" = stdout)
//   trace_json=PATH    Chrome trace-event JSON (open in ui.perfetto.dev)
//   profile=1          host-side per-stage wall-time profile, to stderr
//
// Examples:
//   ./simulate mix=1 scheme=rrob threshold=16
//   ./simulate art art mgrid crafty scheme=prob threshold=5 stats=1
//   ./simulate mcf threads=1 rob1=128 policy=icount
//   ./simulate mix=2 scheme=rrob sample=1000 sample_out=series.jsonl
//       trace_json=trace.json
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "obs/chrome_trace.hpp"
#include "sim/cmp.hpp"
#include "sim/config_override.hpp"
#include "sim/experiment.hpp"
#include "workload/spec_profiles.hpp"

using namespace tlrob;

int main(int argc, char** argv) {
  const Options opts = Options::from_args(argc, argv);

  // --- workload ------------------------------------------------------------
  std::vector<Benchmark> benches;
  if (opts.has("mix")) {
    benches = mix_benchmarks(table2_mix(static_cast<u32>(opts.get_u64("mix", 1))));
  } else {
    for (const std::string& name : opts.positional()) {
      if (!is_spec_benchmark(name)) {
        std::fprintf(stderr, "unknown benchmark '%s'; available:", name.c_str());
        for (const auto& b : spec_benchmarks()) std::fprintf(stderr, " %s", b.name.c_str());
        std::fprintf(stderr, "\n");
        return 1;
      }
      benches.push_back(spec_benchmark(name));
    }
  }
  if (benches.empty()) benches = mix_benchmarks(table2_mix(1));

  // --- machine ----------------------------------------------------------------
  MachineConfig cfg;
  cfg.num_threads = static_cast<u32>(benches.size());
  cfg.rob_second_level = 0;
  cfg.rob.scheme = RobScheme::kBaseline;
  cfg = apply_overrides(cfg, opts);
  if (cfg.rob.scheme != RobScheme::kBaseline && !opts.has("rob2"))
    cfg.rob_second_level = 384;  // Table 1 default when a two-level scheme is on
  // cores= splits the machine-wide thread count (num_threads so far counts
  // the whole workload list), matching tlrob-campaign's --cores semantics.
  if (cfg.num_cores == 0) cfg.num_cores = 1;  // cores=0 means the single-core machine
  const u32 cores = cfg.num_cores;
  if (cores > 1) {
    if (cfg.num_threads % cores != 0) {
      std::fprintf(stderr, "threads=%u not divisible by cores=%u\n", cfg.num_threads, cores);
      return 1;
    }
    cfg.num_threads /= cores;
  }
  const size_t machine_threads = static_cast<size_t>(cfg.num_threads) * cores;
  while (benches.size() < machine_threads) benches.push_back(benches.back());
  if (benches.size() > machine_threads) benches.resize(machine_threads);

  const u64 insts = opts.get_u64("insts", 120000);
  const u64 warmup = opts.get_u64("warmup", 60000);
  const u64 max_cycles = opts.get_u64("max_cycles", 0);
  const bool dump_stats = opts.get_bool("stats", false);

  // --- observability -------------------------------------------------------
  cfg.telemetry.sample_interval = opts.get_u64("sample", cfg.telemetry.sample_interval);
  cfg.telemetry.profile = opts.get_bool("profile", cfg.telemetry.profile);
  const std::string sample_out = opts.get("sample_out"), sample_csv = opts.get("sample_csv");
  const std::string trace_json = opts.get("trace_json"), trace_window = opts.get("trace");
  if ((!sample_out.empty() || !sample_csv.empty()) && cfg.telemetry.sample_interval == 0)
    cfg.telemetry.sample_interval = 1000;  // asking for the series implies sampling

  if (const std::vector<std::string> unread = opts.unread_keys(); !unread.empty()) {
    std::fprintf(stderr, "unknown option '%s'\n", unread.front().c_str());
    return 2;
  }

  std::printf("%s", describe(cfg).c_str());
  std::printf("workload              ");
  for (const auto& b : benches) std::printf(" %s", b.name.c_str());
  std::printf("\nrun                    %llu insts after %llu warmup\n\n",
              static_cast<unsigned long long>(insts),
              static_cast<unsigned long long>(warmup));

  // The observability hooks attach to core 0 (per-core trace files would
  // interleave unusably).
  CmpMachine machine(cfg, benches);
  SmtCore& core = machine.core(0);
  if (cores > 1 && (!trace_window.empty() || !trace_json.empty() || cfg.telemetry.profile))
    std::fprintf(stderr, "note: trace/profile observe core 0 of %u\n", cores);
  if (!trace_window.empty()) {
    const auto colon = trace_window.find(':');
    const Cycle lo = std::strtoull(trace_window.c_str(), nullptr, 0);
    const Cycle hi = colon == std::string::npos
                         ? lo + 200
                         : std::strtoull(trace_window.c_str() + colon + 1, nullptr, 0);
    core.tracer().attach(&std::cerr, lo, hi);
  }
  obs::ChromeTraceWriter chrome;
  if (!trace_json.empty()) core.attach_chrome_trace(&chrome);
  const RunResult r = machine.run(insts, max_cycles, warmup);

  // A sink path of "-" means stdout; anything else is a file (created or
  // truncated). Returns false when the file cannot be opened.
  auto write_to = [](const std::string& path, auto&& emit) {
    if (path == "-") {
      emit(std::cout);
      return true;
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
      return false;
    }
    emit(out);
    return true;
  };
  bool sinks_ok = true;
  if (!sample_out.empty())
    sinks_ok &= write_to(sample_out, [&](std::ostream& os) { r.samples.write_jsonl(os); });
  if (!sample_csv.empty())
    sinks_ok &= write_to(sample_csv, [&](std::ostream& os) { r.samples.write_csv(os); });
  if (!trace_json.empty())
    sinks_ok &= write_to(trace_json, [&](std::ostream& os) { chrome.write(os); });
  if (cfg.telemetry.profile) core.profiler().print(std::cerr, core.executed_cycles());

  std::printf("%-10s %10s %10s\n", "thread", "committed", "IPC");
  for (const auto& t : r.threads)
    std::printf("%-10s %10llu %10.4f\n", t.benchmark.c_str(),
                static_cast<unsigned long long>(t.committed), t.ipc);
  std::printf("%-10s %10llu %10.4f  (sum)\n", "cycles",
              static_cast<unsigned long long>(r.cycles), r.total_throughput());

  if (cfg.rob.scheme != RobScheme::kBaseline) {
    std::printf("\nsecond level: %llu allocations, busy %llu/%llu cycles (%.1f%%)\n",
                static_cast<unsigned long long>(run_counter(r, "rob2.allocations")),
                static_cast<unsigned long long>(run_counter(r, "rob2.busy_cycles")),
                static_cast<unsigned long long>(r.cycles),
                r.cycles ? 100.0 * static_cast<double>(run_counter(r, "rob2.busy_cycles")) /
                               static_cast<double>(r.cycles)
                         : 0.0);
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
  return sinks_ok ? 0 : 1;
}

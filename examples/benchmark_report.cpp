// Single-thread characterisation of the 20 synthetic SPEC profiles: IPC,
// ILP class, cache behaviour — the measurement step the paper performs to
// classify benchmarks as low/medium/high ILP (§3) before composing Table 2.
//
//   ./benchmark_report [insts=200000] [bench=<name>]
#include <cstdio>

#include "common/config.hpp"
#include "sim/experiment.hpp"
#include "workload/spec_profiles.hpp"

using namespace tlrob;

namespace {
const char* class_name(IlpClass c) {
  switch (c) {
    case IlpClass::kLow: return "low";
    case IlpClass::kMid: return "mid";
    case IlpClass::kHigh: return "high";
  }
  return "?";
}
}  // namespace

int run_example(const Options& opts) {
  const u64 insts = opts.get_u64("insts", kDefaultCommitTarget);
  const std::string only = opts.get("bench");
  const bool dump = opts.get_bool("dump", false);
  opts.require_all_read();

  std::printf("%-9s %8s %6s | %10s %10s %10s %11s %9s\n", "benchmark", "ST IPC", "class",
              "l1d misses", "l2 misses", "mispreds", "l2/1kinst", "cycles");
  for (const auto& b : spec_benchmarks()) {
    if (!only.empty() && b.name != only) continue;
    const MachineConfig cfg = single_thread_config();
    const RunResult r = run_benchmarks(cfg, {b}, insts);
    const u64 committed = r.threads[0].committed;
    const u64 l1d = r.counters.count("core.loads.l1_miss") ? r.counters.at("core.loads.l1_miss") : 0;
    const u64 l2 = r.counters.count("core.loads.l2_miss") ? r.counters.at("core.loads.l2_miss") : 0;
    const u64 mp = r.counters.count("bpred.branch.cond_mispredict")
                       ? r.counters.at("bpred.branch.cond_mispredict")
                       : 0;
    std::printf("%-9s %8.3f %6s | %10llu %10llu %10llu %11.2f %9llu\n", b.name.c_str(),
                r.threads[0].ipc, class_name(b.expected_class),
                static_cast<unsigned long long>(l1d), static_cast<unsigned long long>(l2),
                static_cast<unsigned long long>(mp),
                committed ? 1000.0 * static_cast<double>(l2) / static_cast<double>(committed)
                          : 0.0,
                static_cast<unsigned long long>(r.cycles));
    if (dump) {
      for (const auto& [k, v] : r.counters)
        std::printf("    %-40s %llu\n", k.c_str(), static_cast<unsigned long long>(v));
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return cli_main([&] { return run_example(Options::from_args(argc, argv)); });
}

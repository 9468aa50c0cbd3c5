// Quickstart: run one 4-thread SPEC mix on the Table 1 machine with and
// without the two-level ROB, and print the paper's metrics.
//
//   ./quickstart [mix=1] [insts=200000] [threshold=16]
#include <cstdio>

#include "common/config.hpp"
#include "sim/experiment.hpp"

using namespace tlrob;

int run_example(const Options& opts) {
  const u32 mix_id = static_cast<u32>(opts.get_u64("mix", 1));
  const u64 insts = opts.get_u64("insts", kDefaultCommitTarget);
  const u32 threshold = static_cast<u32>(opts.get_u64("threshold", 16));
  opts.require_all_read();

  const Mix& mix = table2_mix(mix_id);
  std::printf("%s: %s, %s, %s, %s  (%s)\n\n", mix.name.c_str(), mix.benchmarks[0].c_str(),
              mix.benchmarks[1].c_str(), mix.benchmarks[2].c_str(), mix.benchmarks[3].c_str(),
              mix.classification.c_str());

  const MixOutcome base = run_mix(baseline32_config(), mix, insts);
  const MixOutcome rrob =
      run_mix(two_level_config(RobScheme::kReactive, threshold), mix, insts);

  std::printf("%-10s %12s %12s\n", "thread", "base IPC", "R-ROB IPC");
  for (size_t t = 0; t < base.run.threads.size(); ++t)
    std::printf("%-10s %12.4f %12.4f\n", base.run.threads[t].benchmark.c_str(),
                base.mt_ipc[t], rrob.mt_ipc[t]);

  std::printf("\nfair throughput:  baseline_32 %.4f   2-level R-ROB%u %.4f   (%+.1f%%)\n",
              base.ft, threshold, rrob.ft, 100.0 * (rrob.ft / base.ft - 1.0));
  std::printf("total throughput: baseline_32 %.4f   2-level R-ROB%u %.4f\n", base.throughput,
              threshold, rrob.throughput);
  std::printf("second-level allocations: %llu (busy %llu of %llu cycles)\n",
              static_cast<unsigned long long>(rrob.run.counters.at("rob2.allocations")),
              static_cast<unsigned long long>(rrob.run.counters.at("rob2.busy_cycles")),
              static_cast<unsigned long long>(rrob.run.cycles));
  return 0;
}

int main(int argc, char** argv) {
  return cli_main([&] { return run_example(Options::from_args(argc, argv)); });
}

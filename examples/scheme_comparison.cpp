// Compare every ROB organisation the paper evaluates — Baseline_32,
// Baseline_128 and the four two-level schemes — on one mix, with per-thread
// weighted IPCs (the quantity the fair-throughput metric aggregates).
//
//   ./scheme_comparison [mix=1] [insts=120000] [warmup=60000]
#include <cstdio>

#include "common/config.hpp"
#include "sim/experiment.hpp"

using namespace tlrob;

int run_example(const Options& opts) {
  const u32 mix_id = static_cast<u32>(opts.get_u64("mix", 1));
  const u64 insts = opts.get_u64("insts", 120000);
  const u64 warmup = opts.get_u64("warmup", 60000);
  opts.require_all_read();
  const Mix& mix = table2_mix(mix_id);

  struct Row {
    const char* name;
    MachineConfig cfg;
  };
  const Row rows[] = {
      {"Baseline_32", baseline32_config()},
      {"Baseline_128", baseline128_config()},
      {"2L R-ROB16", two_level_config(RobScheme::kReactive, 16)},
      {"2L Relaxed15", two_level_config(RobScheme::kRelaxedReactive, 15)},
      {"2L CDR-ROB15", two_level_config(RobScheme::kCdr, 15)},
      {"2L P-ROB5", two_level_config(RobScheme::kPredictive, 5)},
      {"AdaptiveROB", two_level_config(RobScheme::kAdaptive, 16)},
  };

  std::printf("%s: %s, %s, %s, %s\n\n", mix.name.c_str(), mix.benchmarks[0].c_str(),
              mix.benchmarks[1].c_str(), mix.benchmarks[2].c_str(),
              mix.benchmarks[3].c_str());
  std::printf("%-14s", "config");
  for (const auto& b : mix.benchmarks) std::printf(" %10s", b.c_str());
  std::printf(" %10s %10s %8s\n", "FT", "IPC sum", "2L busy");

  for (const Row& row : rows) {
    const RunResult r = run_benchmarks(row.cfg, mix_benchmarks(mix), insts, 0, warmup);
    std::vector<double> mt, st;
    for (const auto& t : r.threads) {
      mt.push_back(t.ipc);
      st.push_back(single_thread_ipc(t.benchmark, insts));
    }
    std::printf("%-14s", row.name);
    for (size_t t = 0; t < mt.size(); ++t) std::printf(" %10.2f", weighted_ipc(mt[t], st[t]));
    const double busy = r.cycles == 0 ? 0.0
                                      : 100.0 *
                                            static_cast<double>(run_counter(r, "rob2.busy_cycles")) /
                                            static_cast<double>(r.cycles);
    std::printf(" %10.4f %10.4f %7.1f%%\n", fair_throughput(mt, st), r.total_throughput(),
                busy);
    std::fflush(stdout);
  }
  std::printf("\n(per-benchmark columns show weighted IPC = MT IPC / single-thread IPC;\n"
              " '2L busy' is the fraction of cycles the shared second-level partition was"
              " allocated)\n");
  return 0;
}

int main(int argc, char** argv) {
  return cli_main([&] { return run_example(Options::from_args(argc, argv)); });
}

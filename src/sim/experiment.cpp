#include "sim/experiment.hpp"

#include "sim/cmp.hpp"

namespace tlrob {

RunResult run_benchmarks(const MachineConfig& cfg, const std::vector<Benchmark>& benchmarks,
                         u64 commit_target, u64 max_cycles, u64 warmup_insts) {
  CmpMachine machine(cfg, benchmarks);
  return machine.run(commit_target, max_cycles, warmup_insts);
}

}  // namespace tlrob

#include "sim/experiment.hpp"

#include <map>
#include <memory>
#include <mutex>

#include "common/sync.hpp"
#include "sim/cmp.hpp"
#include "trace/resolve.hpp"

namespace tlrob {

namespace {

/// Memo slot for one (benchmark, insts) single-thread reference run: the
/// once_flag serialises the expensive simulation, the value is written
/// exactly once under it.
struct StIpcEntry {
  std::once_flag once;
  double ipc = 0.0;
};

/// Guards the memo map's shape (insertion); the entries themselves are
/// pointer-stable (unique_ptr values, never erased) and owned by their
/// once_flag after the slot is handed out.
Mutex st_ipc_mu;
std::map<std::pair<std::string, u64>, std::unique_ptr<StIpcEntry>> st_ipc_cache
    TLROB_GUARDED_BY(st_ipc_mu);

}  // namespace

RunResult run_benchmarks(const MachineConfig& cfg, const std::vector<Benchmark>& benchmarks,
                         u64 commit_target, u64 max_cycles, u64 warmup_insts) {
  CmpMachine machine(cfg, benchmarks);
  return machine.run(commit_target, max_cycles, warmup_insts);
}

double single_thread_ipc(const std::string& benchmark, u64 commit_target) {
  // Concurrent campaign jobs share this memo, so it must be thread-safe and
  // compute each key exactly once: the map hands out stable per-key entries
  // under a short lock, and call_once runs the (expensive) reference
  // simulation outside it while concurrent callers of the same key block
  // until the value exists.
  StIpcEntry* entry;
  {
    MutexLock lock(st_ipc_mu);
    auto& slot = st_ipc_cache[std::make_pair(benchmark, commit_target)];
    if (!slot) slot = std::make_unique<StIpcEntry>();
    entry = slot.get();
  }
  std::call_once(entry->once, [&] {
    const MachineConfig cfg = single_thread_config();
    const RunResult r = run_benchmarks(cfg, {trace::resolve_benchmark(benchmark)}, commit_target);
    entry->ipc = r.threads.at(0).ipc;
  });
  return entry->ipc;
}

}  // namespace tlrob

#include "sim/cmp.hpp"

#include <stdexcept>
#include <string>

#include "memory/shared_memory.hpp"
#include "obs/chrome_trace.hpp"

namespace tlrob {

CmpMachine::CmpMachine(const MachineConfig& cfg, const std::vector<Benchmark>& benchmarks)
    : cfg_(cfg.validate()) {
  if (benchmarks.size() != static_cast<size_t>(cfg.num_cores) * cfg.num_threads)
    throw std::invalid_argument(
        "CmpMachine: one benchmark per hardware thread (num_cores * num_threads) required");

  // A 1-core machine with the LLC off has nothing to share; leaving shared_
  // null keeps it the paper's single-core machine (private memory channel,
  // no llc.*/dram.* counters). It has no DRAM model either, so a DRAM
  // setting there would do nothing. The check lives here, not in validate():
  // each core of a CMP is validated as a 1-core machine.
  if (cfg.has_shared_backend()) {
    LlcConfig llc = cfg.llc;
    llc.enabled = true;
    shared_ = std::make_unique<SharedMemory>(llc, cfg.dram);
  } else if (cfg.dram != DramConfig{}) {
    throw std::invalid_argument(
        "CmpMachine: dram is set, but a 1-core machine without an LLC has no DRAM model "
        "(add cores > 1 or an llc)");
  }

  cores_.reserve(cfg.num_cores);
  for (u32 c = 0; c < cfg.num_cores; ++c) {
    MachineConfig core_cfg = cfg;
    core_cfg.num_cores = 1;
    const std::vector<Benchmark> slice(benchmarks.begin() + c * cfg.num_threads,
                                       benchmarks.begin() + (c + 1) * cfg.num_threads);
    cores_.push_back(std::make_unique<SmtCore>(core_cfg, slice, shared_.get(), c));
  }
}

void CmpMachine::attach_chrome_trace(const std::vector<obs::ChromeTraceWriter*>& per_core,
                                     obs::ChromeTraceWriter* backend) {
  if (per_core.size() != cores_.size())
    throw std::invalid_argument("CmpMachine::attach_chrome_trace: one writer per core required");
  // A lone core without a backend is the single-core machine, whose trace
  // is one unnamed process (pid 0); otherwise every process is named.
  const bool named = cores_.size() > 1 || shared_ != nullptr;
  for (size_t c = 0; c < cores_.size(); ++c) {
    // pid before attach: the core's thread_name metadata events stamp the
    // writer's pid at emission time.
    per_core[c]->set_pid(static_cast<u32>(c));
    if (named) per_core[c]->set_process_name("core" + std::to_string(c));
    cores_[c]->attach_chrome_trace(per_core[c]);
  }
  if (backend != nullptr && shared_ != nullptr) {
    backend->set_pid(static_cast<u32>(cores_.size()));
    backend->set_process_name("shared backend");
    shared_->attach_chrome_trace(backend);
  }
}

u64 CmpMachine::executed_cycles() const {
  u64 total = 0;
  for (const auto& c : cores_) total += c->executed_cycles();
  return total;
}

RunResult CmpMachine::run(u64 commit_target, u64 max_cycles, u64 warmup_insts) {
  std::vector<SmtCore*> cores;
  cores.reserve(cores_.size());
  for (auto& c : cores_) cores.push_back(c.get());
  run_lockstep(cores, commit_target, max_cycles, warmup_insts);
  return snapshot_result();
}

void CmpMachine::append_shared_counters(RunResult& r) const {
  if (shared_ == nullptr) return;
  export_stats(r.counters, "llc.", shared_->llc().stats(), kCacheStatFields);
  // Cross-core merges, MSHR stalls, writebacks.
  export_stats(r.counters, "llc.", shared_->stats(), kSharedMemoryStatFields);
  export_stats(r.counters, "dram.", shared_->dram().stats(), kDramStatFields);
}

RunResult CmpMachine::snapshot_result() const {
  RunResult r = cores_.front()->snapshot_result();
  for (size_t c = 1; c < cores_.size(); ++c) {
    const RunResult rc = cores_[c]->snapshot_result();
    // Threads concatenate core-major; cycles are lockstep-equal across cores.
    r.threads.insert(r.threads.end(), rc.threads.begin(), rc.threads.end());
    // Stall taxonomy concatenates in the same machine-global thread order
    // (empty vectors when telemetry is off keep this a no-op).
    r.stall_cycles.insert(r.stall_cycles.end(), rc.stall_cycles.begin(), rc.stall_cycles.end());
    r.dod_true.merge(rc.dod_true);
    r.dod_proxy.merge(rc.dod_proxy);
    // Per-core counters sum under their historical names ("l2.misses" is the
    // machine-wide L2 miss count, core.fast_forwarded_cycles the core-cycles
    // skipped, etc.).
    for (const auto& [name, v] : rc.counters) r.counters[name] += v;
  }
  if (cores_.size() > 1 && cores_.front()->samples().enabled()) {
    std::vector<const obs::IntervalSeries*> series;
    series.reserve(cores_.size());
    for (const auto& c : cores_) series.push_back(&c->samples());
    r.samples = obs::merge_core_series(series);
  }
  append_shared_counters(r);
  return r;
}

}  // namespace tlrob

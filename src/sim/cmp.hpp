// CMP-of-SMT machine: N SmtCores in lockstep behind one shared LLC + banked
// DRAM backend.
//
// Each core is a complete Table 1 SMT core — private L1/L2, branch state,
// issue queue, register files, and its own second-level ROB partition — and
// the cores couple only through SharedMemory (memory/shared_memory.hpp),
// whose latency-chain contract means the memory side never generates events
// of its own or writes a core's private state. That makes the machine-wide
// run loop (run_lockstep in sim/smt_sim.hpp, the same loop a standalone
// SmtCore runs) simple and the per-core idle fast-forward sound:
//
//   - Awake cores tick in fixed index order every cycle (deterministic
//     interleaving of LLC/DRAM requests).
//   - A core whose tick was idle sleeps until its own wake bound while its
//     peers keep ticking; it takes its samples in its own slot (they read
//     the shared MSHR pool) and replays its stall counters across the
//     skipped distance when it wakes. The machine clock jumps only when
//     every core sleeps.
//
// Result merging: per-thread results concatenate core-major (core c's
// thread t is machine thread c*M + t, matching the workload slicing and the
// address-space bases), per-core counters sum under their historical names
// (core.fast_forwarded_cycles counts core-cycles skipped),
// the shared llc.*/dram.* families append once, and the DoD histograms
// merge. A 1-core machine without an LLC has no backend, so its result is
// exactly its core's.
#pragma once

#include <memory>
#include <vector>

#include "sim/smt_sim.hpp"

namespace tlrob {

class CmpMachine {
 public:
  /// One Benchmark per hardware thread, core-major: benchmarks[c*M + t] runs
  /// on core c, thread t. `benchmarks.size()` must equal
  /// cfg.num_cores * cfg.num_threads.
  CmpMachine(const MachineConfig& cfg, const std::vector<Benchmark>& benchmarks);

  /// Runs until any thread on any core has committed `commit_target`
  /// instructions or `max_cycles` elapse (0 = derive a generous bound), with
  /// `warmup_insts` excluded from every statistic: run_lockstep over every
  /// core, then snapshot_result().
  RunResult run(u64 commit_target, u64 max_cycles = 0, u64 warmup_insts = 0);

  Cycle now() const { return cores_.front()->now(); }
  u32 num_cores() const { return static_cast<u32>(cores_.size()); }
  SmtCore& core(u32 c) { return *cores_[c]; }
  const SmtCore& core(u32 c) const { return *cores_[c]; }
  /// Null when the machine has no shared backend (1 core, LLC disabled).
  SharedMemory* shared_memory() { return shared_.get(); }

  /// Machine-wide Chrome tracing: one writer per core (process track
  /// "core<c>", pid = core index, carrying that core's thread/grant tracks;
  /// a 1-core machine without a backend leaves its one process unnamed)
  /// plus an optional backend writer (pid = num_cores, process "shared
  /// backend") that records LLC MSHR-pool occupancy, per-bank DRAM row
  /// open/conflict instants and cross-core merge events. Pass
  /// `per_core.size() == num_cores()`; `backend` may be null (and is
  /// ignored without a shared backend). Merge the writers with
  /// obs::ChromeTraceWriter::write_merged for one Perfetto-loadable file.
  void attach_chrome_trace(const std::vector<obs::ChromeTraceWriter*>& per_core,
                           obs::ChromeTraceWriter* backend);

  /// Machine-wide executed ticks (sum over cores of cycles minus their
  /// fast-forwarded spans) — the ns/cycle denominator for
  /// obs::SelfProfiler::print.
  u64 executed_cycles() const;

  /// Machine-wide result: concatenated threads, summed per-core counters,
  /// shared llc.*/dram.* families, merged DoD histograms and sample series.
  RunResult snapshot_result() const;

 private:
  /// Adds the shared backend's llc.*/dram.* counter families to `r` (no-op
  /// without a backend).
  void append_shared_counters(RunResult& r) const;

  MachineConfig cfg_;
  std::unique_ptr<SharedMemory> shared_;  // may be null (1 core, LLC off)
  std::vector<std::unique_ptr<SmtCore>> cores_;
};

}  // namespace tlrob

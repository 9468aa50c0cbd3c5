// Experiment harness under the campaign runner (runner::execute_job) and the
// tests: runs benchmarks on a configured machine and measures the
// single-thread references the paper's metrics weight by.
//
// Weighted-IPC denominators (each benchmark's IPC "in a single-threaded
// situation", §3) are measured on the fixed single-thread reference machine
// (sim/presets.hpp) and memoised per (benchmark, commit_target), since every
// figure reuses them.
#pragma once

#include "sim/metrics.hpp"
#include "sim/presets.hpp"
#include "sim/smt_sim.hpp"
#include "workload/mixes.hpp"

namespace tlrob {

/// Default per-run length (committed instructions on the fastest thread).
inline constexpr u64 kDefaultCommitTarget = 200000;
/// Default warmup (committed instructions, excluded from all statistics).
inline constexpr u64 kDefaultWarmup = 60000;

/// Runs `benchmarks` (one per thread) on `cfg`.
RunResult run_benchmarks(const MachineConfig& cfg, const std::vector<Benchmark>& benchmarks,
                         u64 commit_target = kDefaultCommitTarget, u64 max_cycles = 0,
                         u64 warmup_insts = kDefaultWarmup);

/// Single-threaded IPC of a SPEC profile on the reference machine.
/// Memoised and thread-safe: each (benchmark, commit_target) is simulated
/// exactly once, concurrent callers of an in-flight key block until the
/// value exists (the campaign runner hits this from many workers at once).
double single_thread_ipc(const std::string& benchmark, u64 commit_target = kDefaultCommitTarget);

}  // namespace tlrob

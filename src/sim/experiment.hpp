// Experiment harness under the campaign runner (runner::execute_job) and the
// tests: runs benchmarks on a configured machine and reads the
// single-thread references the paper's metrics weight by.
//
// Weighted-IPC denominators (each benchmark's IPC "in a single-threaded
// situation", §3) are campaign cells on the fixed single-thread reference
// machine (sim/presets.hpp): runner::reference_job. The campaign engine
// defines single_thread_ipc, so every reference is simulated once per
// process in its cell memo and journalled in its manifest.
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

/// Single-threaded IPC of a workload on the reference machine: the IPC of
/// the cell runner::reference_job(benchmark, commit_target), looked up
/// through the campaign engine's cell memo. Thread-safe: each key is
/// simulated once per process, and concurrent callers of an in-flight key
/// block until its record exists. Throws std::runtime_error when the
/// reference fails.
double single_thread_ipc(const std::string& benchmark, u64 commit_target = kDefaultCommitTarget);

}  // namespace tlrob

// Experiment defaults under the campaign runner (runner::execute_job) and the
// tests: the default run length, and the single-thread references the
// paper's metrics weight by. A run itself is
// `CmpMachine(cfg, benchmarks).run(insts, max_cycles, warmup)` (sim/cmp.hpp).
//
// Weighted-IPC denominators (each benchmark's IPC "in a single-threaded
// situation", §3) are campaign cells on the fixed single-thread reference
// machine (sim/presets.hpp): runner::reference_job. The campaign engine
// defines single_thread_ipc, so every reference is simulated once per
// process in its cell store and journalled in its manifest.
#pragma once

#include "sim/metrics.hpp"
#include "sim/presets.hpp"
#include "sim/smt_sim.hpp"
#include "workload/mixes.hpp"

namespace tlrob {

/// Default per-run length (committed instructions on the fastest thread) and
/// warmup (committed instructions, excluded from all statistics): the one
/// source of `simulate`'s insts=/warmup= defaults, runner::RunLengthSpec's
/// and `tlrob-campaign --help`'s.
inline constexpr u64 kDefaultCommitTarget = 120000;
inline constexpr u64 kDefaultWarmup = 60000;

/// Single-threaded IPC of a workload on the reference machine: the IPC of
/// the cell runner::reference_job(benchmark, commit_target), looked up
/// through the campaign engine's cell store. Thread-safe: each key is
/// simulated once per process, and concurrent callers of an in-flight key
/// block until its record exists. Throws std::runtime_error when the
/// reference fails.
double single_thread_ipc(const std::string& benchmark, u64 commit_target = kDefaultCommitTarget);

}  // namespace tlrob

// Machine configuration (Table 1) and the named presets the experiments use.
#pragma once

#include <string>

#include "memory/memory_system.hpp"
#include "memory/shared_memory.hpp"
#include "branch/predictor.hpp"
#include "obs/telemetry_config.hpp"
#include "pipeline/dcra.hpp"
#include "pipeline/fetch_policy.hpp"
#include "rob/allocation_policy.hpp"
#include "verify/audit_context.hpp"

namespace tlrob {

struct MachineConfig {
  /// CMP topology: `num_cores` SMT cores of `num_threads` hardware threads
  /// each. Every core keeps its private L1/L2, branch state and second-level
  /// ROB partition; cores > 1 couple through the shared LLC + banked DRAM
  /// backend (`llc`/`dram`). The default (1 core, LLC off) is exactly the
  /// paper's single-core machine.
  u32 num_cores = 1;
  u32 num_threads = 4;

  // Machine width (Table 1: 8-wide fetch / issue / commit).
  u32 fetch_width = 8;
  u32 fetch_threads = 2;  // ICOUNT 2.8: up to 2 threads per cycle
  u32 dispatch_width = 8;
  u32 issue_width = 8;
  u32 commit_width = 8;

  // Front end.
  u32 decode_depth = 3;      // fetch-to-dispatch pipeline stages
  u32 frontend_buffer = 24;  // per-thread fetched-not-dispatched capacity

  // Window (Table 1: per-thread 32-entry level-1 ROB, 48-entry LSQ; shared
  // 64-entry IQ; the proposed shared second level is 384 entries = 96*4).
  u32 rob_first_level = 32;
  u32 rob_second_level = 384;
  /// Free registers per file the second-level holder must leave for the
  /// other threads' baseline windows (so accelerating a memory-bound thread
  /// does not starve co-runners of renames — the paper's "without adversely
  /// impacting other threads" requirement applied to the shared file).
  u32 second_level_reg_reserve = 24;
  u32 iq_entries = 64;
  u32 lsq_entries = 48;

  // Physical registers (Table 1: 224 int + 224 fp). Per-thread files by
  // default, following M-Sim's SMT model (each context renames out of its
  // own file); the shared-pool interpretation of Table 1 is available as an
  // ablation (tlrob-campaign ablation_regfile) and makes the register file, not the
  // ROB, the binding window limit.
  u32 int_regs = 224;
  u32 fp_regs = 224;
  bool shared_regfile = false;

  /// L2-miss-driven early register deallocation (Sharkey & Ponomarev,
  /// ICS'07) — the synergy the paper cites but leaves out of its evaluation.
  /// When a thread waits on an L2 miss and has no unresolved control flow,
  /// previous mappings whose value has been produced and fully consumed are
  /// released before commit, letting the second-level window grow past the
  /// register-file bound. Off by default to match the paper's configuration.
  bool early_register_release = false;

  FetchPolicyKind fetch_policy = FetchPolicyKind::kDcra;
  DcraConfig dcra{};
  RobPolicyConfig rob{};
  MemoryConfig memory{};
  /// Shared memory-side backend (CMP mode): LLC geometry/MSHRs and banked
  /// DRAM timing. Ignored unless has_shared_backend().
  LlcConfig llc{};
  DramConfig dram{};
  PredictorConfig predictor{};
  u32 load_hit_entries = 1024;  // Table 1 load-hit predictor
  u32 load_hit_history = 8;

  /// Pipeline invariant auditing (src/verify). Defaults to the process-wide
  /// $TLROB_AUDIT setting so CI can turn the cheap tier on for every
  /// existing test without touching them.
  AuditConfig audit = default_audit_config();

  /// Observability (src/obs): interval sampling, off by default and then
  /// provably zero-cost on the cycle loop. The one place a run's sampling
  /// period lives: simulate's `sample=` and tlrob-campaign's
  /// `--sample-interval` write it here. Host self-profiling is not part of
  /// the machine: obs::SelfProfiler samples whichever thread runs it.
  obs::TelemetryConfig telemetry{};

  u64 seed = 12345;

  /// Whether L2 misses go to a shared LLC and banked DRAM: the LLC is on,
  /// or more than one core shares them. Otherwise the machine is the
  /// paper's single core with a private memory channel.
  bool has_shared_backend() const { return llc.enabled || num_cores > 1; }

  /// The one validity check every machine construction path runs before any
  /// structure is sized: throws std::invalid_argument naming the first
  /// kNonzero knob (sim/config_override.hpp) that is zero — a width,
  /// capacity, MSHR pool or re-check interval — a zero `rob_second_level`
  /// under a scheme that uses_second_level, a cache geometry (L1s, L2, and
  /// the LLC when the machine has a shared backend) whose line size or set
  /// count is not a power of two, a DRAM geometry (with a shared backend)
  /// the DRAM model cannot map, or a register file too small for the
  /// committed architectural state. Errors name the knob (its table path
  /// and CLI key). Returns *this, so constructors can validate in their
  /// initializer list.
  const MachineConfig& validate() const;
};

/// Table 1 baseline: 32-entry private ROBs, no second level, DCRA fetch.
MachineConfig baseline32_config();

/// Baseline_128 of Figure 2: private ROBs blindly scaled to 128 entries.
MachineConfig baseline128_config();

/// The Table 1 machine running `scheme`: the two-level configurations of
/// §5, Adaptive with no second level, and Baseline_32 for kBaseline (whose
/// threshold is ignored).
MachineConfig two_level_config(RobScheme scheme, u32 dod_threshold);

/// The single-threaded reference machine used as the weighted-IPC
/// denominator (one thread on the Table 1 core).
MachineConfig single_thread_config();

/// CMP of `cores` Table 1 SMT cores sharing an LLC and banked DRAM, each
/// running the given ROB scheme (kBaseline => no second level per core).
MachineConfig cmp_config(u32 cores, RobScheme scheme, u32 dod_threshold);

/// Human-readable one-line-per-parameter dump (simulate prints it).
std::string describe(const MachineConfig& cfg);

}  // namespace tlrob

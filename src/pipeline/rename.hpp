// Register renaming: per-thread map tables (RAT), physical register files
// (Table 1: 224 integer + 224 floating-point), free lists, and the
// ready/speculative-ready scoreboard used by the issue queue.
//
// Each thread renames out of its own full-size files by default, following
// M-Sim's SMT model (MachineConfig::shared_regfile = false). The shared
// pool — "multiple threads share ... the pool of physical registers used
// for renaming" (§1 of the paper) — is the ablation (tlrob-campaign
// ablation_regfile): with 4 threads only 224 - 4*32 = 96 renames per file
// exist, so scaling every private ROB to 128 entries (Baseline_128)
// oversubscribes the file, and the register file, not the ROB, becomes the
// binding window limit.
#pragma once

#include <string>
#include <vector>

#include "pipeline/dyn_inst.hpp"

namespace tlrob {

struct RenameConfig {
  u32 int_regs = 224;
  u32 fp_regs = 224;
  u32 num_threads = 4;
  /// false: each thread gets its own full-size files (the default).
  /// true: one pool of int_regs/fp_regs shared by all threads (ablation).
  bool shared = false;
};

class RenameUnit {
 public:
  explicit RenameUnit(const RenameConfig& cfg);

  /// True if a free destination register of the right class is available for
  /// `tid` (always true for dest-less ops).
  bool can_rename(ThreadId tid, const StaticInst& si) const;

  /// Renames `di` in place: source arch regs -> current mappings, allocates
  /// a destination register, updates the RAT. Requires can_rename().
  void rename(DynInst& di);

  /// Commit: releases the previous mapping of the destination (unless it
  /// was already freed by early release).
  void commit_free(const DynInst& di);

  /// Early register release (Sharkey & Ponomarev, ICS'07 — the synergy the
  /// paper defers to future work): frees `di`'s previous mapping before
  /// commit. Caller guarantees safety: the value has been produced, every
  /// consumer has read it, and `di` can no longer be squashed.
  void early_free_prev(DynInst& di);

  /// Outstanding readers of `r` that have been renamed but have not yet
  /// executed (read their operands).
  u32 pending_readers(PhysReg r) const { return readers_[r]; }
  /// Bookkeeping hooks for the reader counts.
  void consumers_read(const DynInst& di);    // at execution completion
  void consumers_cancel(const DynInst& di);  // at squash/undispatch before execution

  /// Squash undo (youngest-first over the squashed suffix): restores the RAT
  /// entry and releases the allocated destination register.
  void squash_undo(const DynInst& di);

  // -- scoreboard -----------------------------------------------------------
  enum class RegState : u8 { kReady, kNotReady, kSpecReady };

  bool is_ready(PhysReg r, Cycle now) const {
    return state_[r] == RegState::kReady ||
           (state_[r] == RegState::kSpecReady && spec_at_[r] <= now);
  }
  bool is_spec(PhysReg r) const { return state_[r] == RegState::kSpecReady; }
  /// True only when the value has actually been produced (not speculative).
  bool is_value_ready(PhysReg r) const { return state_[r] == RegState::kReady; }
  void set_ready(PhysReg r) { state_[r] = RegState::kReady; }
  void set_spec_ready(PhysReg r, Cycle at) {
    state_[r] = RegState::kSpecReady;
    spec_at_[r] = at;
  }
  /// Squashes a wrong speculation: the register goes back to not-ready.
  void clear_spec(PhysReg r) {
    if (state_[r] == RegState::kSpecReady) state_[r] = RegState::kNotReady;
  }

  // -- occupancy (DCRA inputs / stats) ---------------------------------------
  u32 free_int(ThreadId t) const { return static_cast<u32>(free_int_[pool(t)].size()); }
  u32 free_fp(ThreadId t) const { return static_cast<u32>(free_fp_[pool(t)].size()); }
  u32 int_in_use(ThreadId t) const { return int_use_[t]; }
  u32 fp_in_use(ThreadId t) const { return fp_use_[t]; }

  /// Renameable (non-architectural) registers in the pool `t` draws from.
  u32 int_rename_pool() const {
    return cfg_.int_regs - (cfg_.shared ? cfg_.num_threads : 1) * kNumIntArchRegs;
  }
  u32 fp_rename_pool() const {
    return cfg_.fp_regs - (cfg_.shared ? cfg_.num_threads : 1) * kNumFpArchRegs;
  }

  PhysReg rat_entry(ThreadId t, ArchReg r) const { return rat_[t * kNumArchRegs + r]; }
  const RenameConfig& config() const { return cfg_; }

  /// Invariant-audit hook: verifies register conservation from first
  /// principles — every renameable physical register is on exactly one free
  /// list or counted in exactly one thread's use counter, free registers are
  /// inert (ready, reader-free, right class, not mapped by any RAT) and RAT
  /// entries are in range with the right class. Returns one human-readable
  /// issue per violation (empty = clean).
  std::vector<std::string> audit_integrity() const;

  /// Test-only corruption hook for the invariant-audit suite: drops one
  /// free integer register without adjusting any use counter, simulating a
  /// leaked rename. Never called by the simulator.
  void test_only_leak_free_reg();

 private:
  u32 pool(ThreadId t) const { return cfg_.shared ? 0 : t; }

  // Inline: rename/commit run per dispatched instruction. The free lists
  // are LIFO stacks, which both avoids shifting and pins the allocation
  // order (the register a given rename receives is part of the machine's
  // deterministic fingerprint).
  PhysReg alloc(bool fp, ThreadId t) {
    auto& fl = fp ? free_fp_[pool(t)] : free_int_[pool(t)];
    const PhysReg r = fl.back();
    fl.pop_back();
    (fp ? fp_use_ : int_use_)[t] += 1;
    return r;
  }

  void release(PhysReg r, ThreadId t) {
    const bool fp = is_fp_phys_[r] != 0;
    (fp ? free_fp_[pool(t)] : free_int_[pool(t)]).push_back(r);
    u32& use = (fp ? fp_use_ : int_use_)[t];
    if (use > 0) --use;
    state_[r] = RegState::kReady;  // free regs are inert; reset for reuse
  }

  RenameConfig cfg_;
  // RAT flattened to one dense array ([thread * kNumArchRegs + arch reg]):
  // rename() reads up to three entries per instruction, and the flat layout
  // keeps all threads' tables in one allocation with no outer indirection.
  std::vector<PhysReg> rat_;
  std::vector<std::vector<PhysReg>> free_int_;  // [pool]
  std::vector<std::vector<PhysReg>> free_fp_;
  std::vector<RegState> state_;  // flat over all physical registers
  std::vector<Cycle> spec_at_;
  std::vector<u32> readers_;     // renamed-but-not-yet-executed consumers
  std::vector<u8> is_fp_phys_;   // class of each physical register
  std::vector<u32> int_use_;     // renamed (non-architectural) regs per thread
  std::vector<u32> fp_use_;
};

}  // namespace tlrob

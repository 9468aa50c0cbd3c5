// In-flight dynamic instruction record. The per-thread ROB owns these; every
// other structure (issue queue, LSQ, functional units, event queue) refers to
// them either by stable pointer (within a cycle) or by (tid, tseq) reference
// that is re-resolved through the ROB (across cycles, surviving squashes).
//
// Every ROB slab slot and frontend-ring slot is one DynInst, so the fields
// are grouped by size (8-, 4-, then 1-byte) to leave no padding holes; the
// comments name the role each field belongs to.
#pragma once

#include "branch/predictor.hpp"
#include "common/types.hpp"
#include "isa/static_inst.hpp"

namespace tlrob {

struct DynInst {
  // -- 8-byte fields -----------------------------------------------------------
  SeqNum seq = 0;    // identity: global fetch order (age comparisons across threads)
  u64 tseq = 0;      // identity: per-thread program order; never reused, so
                     // (tid,tseq) is a stable reference even across squashes
  const StaticInst* si = nullptr;
  Addr pc = 0;
  // Architectural outcome (wrong-path ops carry synthetic values).
  Addr mem_addr = 0;
  Addr actual_target = 0;   // control: actual next PC
  // Memory ops.
  Cycle l2_miss_detect_cycle = kNeverCycle;
  // Stall-taxonomy segment edges of an in-flight load's latency chain
  // (absolute cycles, non-decreasing; see DataAccess::seg_*). Only set on
  // issued loads that missed the L1; 0 otherwise.
  Cycle seg_private_end = 0;
  Cycle seg_llc_end = 0;
  Cycle seg_dram_end = 0;
  // Bookkeeping.
  Cycle fetch_cycle = 0;
  Cycle complete_cycle = kNeverCycle;
  // Front-end prediction.
  BranchPrediction pred;

  // -- 4-byte fields -----------------------------------------------------------
  ThreadId tid = 0;
  // Rename.
  PhysReg src_phys[2] = {kInvalidPhysReg, kInvalidPhysReg};
  PhysReg dest_phys = kInvalidPhysReg;
  PhysReg prev_dest_phys = kInvalidPhysReg;
  u32 replay_gen = 0;       // bumped when a speculatively issued op replays;
                            // stale completion events compare and drop
  int iq_slot = -1;

  // -- 1-byte fields -----------------------------------------------------------
  OpClass op = OpClass::kNop;
  bool wrong_path = false;
  bool taken = false;         // control: actual direction
  bool mispredicted = false;  // set at fetch for correct-path ops whose
                              // prediction disagrees with the outcome
  bool prev_freed_early = false;  // L2-miss-driven early register release
  // Status.
  bool dispatched = false;
  bool in_iq = false;       // occupies an issue-queue slot
  bool issued = false;
  bool executed = false;    // "result valid" bit — exactly what the paper's
                            // DoD counter scans
  bool branch_resolved = false;
  // Memory ops.
  bool lsq_allocated = false;
  bool addr_resolved = false;   // store address known (gates younger loads)
  bool is_l2_miss = false;      // long-latency load
  bool l1_counted = false;      // contributes to the thread's outstanding-L1 count
  bool l2_counted = false;
  // Speculative scheduling.
  bool spec_used[2] = {false, false};  // issued on a speculatively-ready source

  bool is_load() const { return op == OpClass::kLoad; }
  bool is_store() const { return op == OpClass::kStore; }
  bool is_mem() const { return is_memory(op); }
  bool is_ctrl() const { return is_control(op); }
};
static_assert(sizeof(DynInst) <= 160, "DynInst grew: keep the fields grouped by size");

/// Cross-cycle reference to an in-flight instruction.
struct InstRef {
  u64 tseq = 0;
  ThreadId tid = 0;
  u32 replay_gen = 0;
};
static_assert(sizeof(InstRef) == 16);

}  // namespace tlrob

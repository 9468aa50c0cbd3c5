// Static (compile-time) instruction representation.
//
// A synthetic benchmark is a control-flow graph of basic blocks; each block is
// a sequence of StaticInst. Register identities encode dataflow only — there
// are 32 integer architectural registers (indices 0..31) and 32 floating-point
// ones (32..63). Loads and stores reference a per-program *address generator*
// by id; conditional branches reference an *outcome generator* by id. Those
// generators are owned by the workload layer (workload/thread_context.hpp),
// keeping the ISA free of any policy.
#pragma once

#include "common/types.hpp"
#include "isa/opcode.hpp"

namespace tlrob {

inline constexpr ArchReg kNoReg = 0xffff;
inline constexpr u32 kNumIntArchRegs = 32;
inline constexpr u32 kNumFpArchRegs = 32;
inline constexpr u32 kNumArchRegs = kNumIntArchRegs + kNumFpArchRegs;

/// True if the architectural register index names an FP register.
constexpr bool is_fp_reg(ArchReg r) { return r >= kNumIntArchRegs && r < kNumArchRegs; }

/// Convenience constructors for readable kernel-builder code.
constexpr ArchReg ireg(u32 i) { return static_cast<ArchReg>(i % kNumIntArchRegs); }
constexpr ArchReg freg(u32 i) { return static_cast<ArchReg>(kNumIntArchRegs + (i % kNumFpArchRegs)); }

struct StaticInst {
  OpClass op = OpClass::kNop;
  ArchReg dest = kNoReg;
  ArchReg src[2] = {kNoReg, kNoReg};

  /// Loads/stores: index of the address generator in the program's table.
  i32 agen_id = -1;
  /// Conditional branches: index of the outcome generator.
  i32 bgen_id = -1;

  /// Control-flow successors, as basic-block ids within the program.
  /// kBranch: taken_block if taken, fall-through otherwise (branches may only
  /// terminate a block). kJump/kCall: taken_block unconditionally. kReturn:
  /// target comes from the thread's architectural return stack.
  u32 taken_block = 0;

  /// Filled in by Program::finalize(): this instruction's PC.
  Addr pc = 0;

  u8 num_src() const { return static_cast<u8>((src[0] != kNoReg) + (src[1] != kNoReg)); }
  bool has_dest() const { return dest != kNoReg; }
  bool is_load() const { return op == OpClass::kLoad; }
  bool is_store() const { return op == OpClass::kStore; }
};

}  // namespace tlrob

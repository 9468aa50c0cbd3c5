// Fluent low-level builder for synthetic programs.
//
// The workload layer wraps this with generator-spec management; the builder
// itself only deals in opaque generator ids. Emission is always into the
// "current" block (see in()).
#pragma once

#include <string>

#include "isa/program.hpp"

namespace tlrob {

class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name);

  /// Creates a new (empty) basic block and returns its id. Does not change
  /// the current emission block.
  u32 new_block();

  /// Switches emission to `block`.
  ProgramBuilder& in(u32 block);
  u32 current_block() const { return cur_; }

  /// Sets the fall-through successor of `block` (default successor when the
  /// terminating control transfer is not taken, or when the block has none).
  ProgramBuilder& fallthrough(u32 block, u32 succ);

  // -- Instruction emitters (all append to the current block) --------------
  ProgramBuilder& emit(StaticInst si);
  ProgramBuilder& int_alu(ArchReg d, ArchReg a = kNoReg, ArchReg b = kNoReg);
  ProgramBuilder& int_mult(ArchReg d, ArchReg a = kNoReg, ArchReg b = kNoReg);
  ProgramBuilder& fp_add(ArchReg d, ArchReg a = kNoReg, ArchReg b = kNoReg);
  ProgramBuilder& fp_mult(ArchReg d, ArchReg a = kNoReg, ArchReg b = kNoReg);
  /// `addr_dep` expresses an address dependence (e.g. pointer chasing loads
  /// name their own previous destination).
  ProgramBuilder& load(ArchReg d, u32 agen, ArchReg addr_dep = kNoReg);
  ProgramBuilder& store(u32 agen, ArchReg value_src = kNoReg, ArchReg addr_dep = kNoReg);
  ProgramBuilder& branch(u32 bgen, u32 taken_block, ArchReg cond_src = kNoReg);
  ProgramBuilder& jump(u32 target);
  ProgramBuilder& call(u32 target);
  ProgramBuilder& ret();

  /// Finalizes and returns the program. `num_agens`/`num_bgens` are the spec
  /// table sizes the workload layer will provide at thread creation.
  Program build(u32 num_agens, u32 num_bgens, Addr code_base = 0x400000);

 private:
  Program prog_;
  u32 cur_ = 0;
};

}  // namespace tlrob

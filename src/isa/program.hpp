// A synthetic program: a control-flow graph of basic blocks over StaticInst.
//
// Programs are infinite by construction (the benchmark kernels end with a
// back-edge to their entry block), mirroring the steady-state loop behaviour
// of the SPEC 2000 Simpoint regions the paper simulates. The simulator runs a
// program for a configured number of committed instructions.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "isa/static_inst.hpp"

namespace tlrob {

struct BasicBlock {
  std::vector<StaticInst> insts;
  /// Successor when the block does not end in a taken control transfer.
  u32 fallthrough = 0;
};

class Program {
 public:
  explicit Program(std::string name = "anon") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  u32 add_block() {
    blocks_.emplace_back();
    return static_cast<u32>(blocks_.size() - 1);
  }

  BasicBlock& block(u32 id) { return blocks_.at(id); }
  const BasicBlock& block(u32 id) const { return blocks_.at(id); }
  u32 num_blocks() const { return static_cast<u32>(blocks_.size()); }

  u32 num_address_generators() const { return num_agens_; }
  u32 num_branch_generators() const { return num_bgens_; }
  void set_generator_counts(u32 agens, u32 bgens) {
    num_agens_ = agens;
    num_bgens_ = bgens;
  }

  /// Total static instruction count across all blocks.
  u32 num_static_insts() const;

  /// Assigns PCs (code_base + 4 * static index, in block order), validates the
  /// CFG (successor ids in range, control transfers only at block ends,
  /// non-empty blocks, generator ids in range) and freezes the program.
  /// Throws std::logic_error on malformed programs.
  void finalize(Addr code_base = 0x400000);

  bool finalized() const { return finalized_; }
  Addr code_base() const { return code_base_; }

  /// The block whose first instruction sits at `pc`; nullopt for any other
  /// PC, the middle of a block included. Built by finalize().
  std::optional<u32> block_starting_at(Addr pc) const;

 private:
  std::string name_;
  std::vector<BasicBlock> blocks_;
  u32 num_agens_ = 0;
  u32 num_bgens_ = 0;
  Addr code_base_ = 0;
  /// First PC of each block, by block id. finalize() numbers PCs in block
  /// order, so this is sorted.
  std::vector<Addr> block_start_pcs_;
  bool finalized_ = false;
};

}  // namespace tlrob

#include "isa/program.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tlrob {

u32 Program::num_static_insts() const {
  u32 n = 0;
  for (const auto& b : blocks_) n += static_cast<u32>(b.insts.size());
  return n;
}

void Program::finalize(Addr code_base) {
  if (finalized_) throw std::logic_error("Program already finalized: " + name_);
  if (blocks_.empty()) throw std::logic_error("Program has no blocks: " + name_);

  code_base_ = code_base;
  Addr pc = code_base;
  block_start_pcs_.reserve(blocks_.size());
  for (u32 bid = 0; bid < blocks_.size(); ++bid) {
    BasicBlock& b = blocks_[bid];
    if (b.insts.empty())
      throw std::logic_error(name_ + ": empty basic block " + std::to_string(bid));
    block_start_pcs_.push_back(pc);
    if (b.fallthrough >= blocks_.size())
      throw std::logic_error(name_ + ": fallthrough out of range in block " + std::to_string(bid));
    for (u32 i = 0; i < b.insts.size(); ++i) {
      StaticInst& si = b.insts[i];
      si.pc = pc;
      pc += 4;
      const bool last = (i + 1 == b.insts.size());
      if (is_control(si.op) && !last)
        throw std::logic_error(name_ + ": control transfer not at block end (block " +
                               std::to_string(bid) + ")");
      if (is_control(si.op) && si.op != OpClass::kReturn && si.taken_block >= blocks_.size())
        throw std::logic_error(name_ + ": branch target out of range in block " +
                               std::to_string(bid));
      if (is_memory(si.op)) {
        if (si.agen_id < 0 || static_cast<u32>(si.agen_id) >= num_agens_)
          throw std::logic_error(name_ + ": memory op with bad address generator id");
      }
      if (si.op == OpClass::kBranch) {
        if (si.bgen_id < 0 || static_cast<u32>(si.bgen_id) >= num_bgens_)
          throw std::logic_error(name_ + ": branch with bad outcome generator id");
      }
      if (si.is_store() && si.has_dest())
        throw std::logic_error(name_ + ": store must not have a destination register");
    }
  }
  finalized_ = true;
}

std::optional<u32> Program::block_starting_at(Addr pc) const {
  const auto it = std::ranges::lower_bound(block_start_pcs_, pc);
  if (it == block_start_pcs_.end() || *it != pc) return std::nullopt;
  return static_cast<u32>(it - block_start_pcs_.begin());
}

}  // namespace tlrob

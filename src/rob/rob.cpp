#include "rob/rob.hpp"

#include <stdexcept>
#include <utility>

namespace tlrob {

void ReorderBuffer::grant_extra(u32 entries) {
  if (entries > max_extra_)
    throw std::logic_error("ReorderBuffer::grant_extra beyond the slab's max_extra");
  extra_ = entries;
}

DynInst& ReorderBuffer::push(DynInst&& di) {
  if (full()) throw std::logic_error("ReorderBuffer::push on full ROB");
  // tseq is strictly increasing but may have gaps: squashed instructions'
  // numbers are never reused.
  if (!insts_.empty() && insts_.back().tseq >= di.tseq)
    throw std::logic_error("ReorderBuffer::push out of program order");
  insts_.push_back(std::move(di));
  return insts_.back();
}

void ReorderBuffer::pop_head() {
  if (insts_.empty()) throw std::logic_error("ReorderBuffer::pop_head on empty ROB");
  insts_.pop_front();
}

DynInst* ReorderBuffer::find(u64 tseq) {
  if (insts_.empty()) return nullptr;
  const u64 front_tseq = insts_.front().tseq;
  if (tseq < front_tseq || tseq > insts_.back().tseq) return nullptr;
  // tseq rises by at least one per entry, so the index of `tseq` (if
  // present) is at most tseq - front_tseq — and exactly that when no
  // squash gap sits in between, which is the overwhelmingly common case.
  // Probe the guess first; fall back to binary search below it.
  u32 hi = insts_.size();
  const u64 off = tseq - front_tseq;
  if (off < hi) {
    const u32 g = static_cast<u32>(off);
    if (insts_[g].tseq == tseq) return &insts_[g];
    hi = g;  // gaps only push the entry to a lower index
  }
  u32 lo = 0;
  while (lo < hi) {
    const u32 mid = lo + (hi - lo) / 2;
    if (insts_[mid].tseq < tseq)
      lo = mid + 1;
    else
      hi = mid;
  }
  if (lo == insts_.size() || insts_[lo].tseq != tseq) return nullptr;
  return &insts_[lo];
}

const DynInst* ReorderBuffer::find(u64 tseq) const {
  return const_cast<ReorderBuffer*>(this)->find(tseq);
}

void ReorderBuffer::test_only_swap(u32 i, u32 j) {
  if (i >= insts_.size() || j >= insts_.size())
    throw std::out_of_range("ReorderBuffer::test_only_swap");
  std::swap(insts_[i], insts_[j]);
}

u32 ReorderBuffer::count_unexecuted_younger(u64 tseq, u32 window) const {
  u32 count = 0;
  u32 scanned = 0;
  for (u32 i = 0; i < insts_.size(); ++i) {
    const DynInst& di = insts_[i];
    if (di.tseq <= tseq) continue;
    if (scanned >= window) break;
    ++scanned;
    if (!di.executed) ++count;
  }
  return count;
}

u32 ReorderBuffer::count_true_dependents(const DynInst& load) const {
  // Epoch-stamped membership: taint_gen_[r] == taint_epoch_ means r is
  // tainted this walk. The array grows to the highest physical register
  // seen and is never cleared between calls.
  ++taint_epoch_;
  auto taint = [&](PhysReg r) {
    if (r >= taint_gen_.size()) taint_gen_.resize(r + 1, 0);
    taint_gen_[r] = taint_epoch_;
  };
  auto tainted = [&](PhysReg r) {
    return r < taint_gen_.size() && taint_gen_[r] == taint_epoch_;
  };
  if (load.dest_phys != kInvalidPhysReg) taint(load.dest_phys);
  u32 count = 0;
  for (u32 i = 0; i < insts_.size(); ++i) {
    const DynInst& di = insts_[i];
    if (di.tseq <= load.tseq) continue;
    bool dep = false;
    for (PhysReg s : di.src_phys)
      if (s != kInvalidPhysReg && tainted(s)) dep = true;
    if (dep) {
      ++count;
      if (di.dest_phys != kInvalidPhysReg) taint(di.dest_phys);
    }
  }
  return count;
}

}  // namespace tlrob

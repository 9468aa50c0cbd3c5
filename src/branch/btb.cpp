#include "branch/btb.hpp"

#include <stdexcept>

namespace tlrob {

Btb::Btb(u32 entries, u32 ways) : ways_(ways) {
  if (ways == 0 || entries % ways != 0)
    throw std::invalid_argument("Btb: entries must be a multiple of ways");
  sets_ = entries / ways;
  if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0)
    throw std::invalid_argument("Btb: set count must be a nonzero power of two");
  set_shift_ = 0;
  while ((sets_ >> set_shift_) > 1) ++set_shift_;
  valid_.assign(entries, 0);
  tags_.assign(entries, 0);
  targets_.assign(entries, 0);
  lru_.assign(entries, 0);
}

void Btb::update(ThreadId tid, Addr pc, Addr target) {
  const u32 base = static_cast<u32>(set_of(pc) * ways_);
  const u64 tag = tag_of(tid, pc);
  ++stamp_;
  for (u32 w = 0; w < ways_; ++w) {
    const u32 i = base + w;
    if (valid_[i] != 0 && tags_[i] == tag) {
      targets_[i] = target;
      lru_[i] = stamp_;
      return;
    }
  }
  u32 victim = base;
  for (u32 w = 0; w < ways_; ++w) {
    const u32 i = base + w;
    if (valid_[i] == 0) {
      victim = i;
      break;
    }
    if (lru_[i] < lru_[victim]) victim = i;
  }
  valid_[victim] = 1;
  tags_[victim] = tag;
  targets_[victim] = target;
  lru_[victim] = stamp_;
}

}  // namespace tlrob

#include "pipeline/issue_queue.hpp"

#include <cassert>
#include <stdexcept>

namespace tlrob {

IssueQueue::IssueQueue(u32 entries, u32 num_threads)
    : slots_(entries, nullptr),
      live_((entries + 63) / 64, 0),
      scan_((entries + 63) / 64, 0),
      chk_src_(2 * entries, kInvalidPhysReg),
      park_next_(entries, kNoSlot),
      park_prev_(entries, kNoSlot),
      park_reg_(entries, kInvalidPhysReg),
      per_thread_(num_threads, 0),
      last_word_mask_(entries % 64 == 0 ? ~0ULL : (1ULL << (entries % 64)) - 1),
      free_(entries) {}

void IssueQueue::insert(DynInst* di) {
  if (free_ == 0) throw std::logic_error("IssueQueue::insert on full queue");
  for (u32 w = 0; w < live_.size(); ++w) {
    const u64 mask = (w + 1 == live_.size()) ? last_word_mask_ : ~0ULL;
    const u64 free_bits = ~live_[w] & mask;
    if (free_bits == 0) continue;
    const u32 i = (w << 6) + static_cast<u32>(std::countr_zero(free_bits));
    slots_[i] = di;
    bm_set(live_, i);
    if (!di->issued) bm_set(scan_, i);
    // A store issues on its address source alone (src[1]); the data (src[0])
    // is only needed at commit, so it never gates the candidate scan.
    chk_src_[2 * i] = di->is_store() ? kInvalidPhysReg : di->src_phys[0];
    chk_src_[2 * i + 1] = di->src_phys[1];
    di->iq_slot = static_cast<int>(i);
    di->in_iq = true;
    --free_;
    ++per_thread_[di->tid];
    return;
  }
  assert(false && "free_ count out of sync");
}

void IssueQueue::remove(DynInst* di) {
  if (!di->in_iq) return;
  const u32 i = static_cast<u32>(di->iq_slot);
  assert(di->iq_slot >= 0 && slots_[i] == di);
  slots_[i] = nullptr;
  bm_clear(live_, i);
  bm_clear(scan_, i);
  if (park_reg_[i] != kInvalidPhysReg) unpark(i);
  di->in_iq = false;
  di->iq_slot = -1;
  ++free_;
  --per_thread_[di->tid];
}

void IssueQueue::park(u32 slot, PhysReg r) {
  assert(park_reg_[slot] == kInvalidPhysReg && "a scanned slot is never parked");
  if (r >= park_head_.size()) park_head_.resize(r + 1, kNoSlot);
  const u32 head = park_head_[r];
  park_reg_[slot] = r;
  park_prev_[slot] = kNoSlot;
  park_next_[slot] = head;
  if (head != kNoSlot) park_prev_[head] = slot;
  park_head_[r] = slot;
  bm_clear(scan_, slot);
}

void IssueQueue::unpark(u32 slot) {
  const u32 prev = park_prev_[slot];
  const u32 next = park_next_[slot];
  if (prev != kNoSlot)
    park_next_[prev] = next;
  else
    park_head_[park_reg_[slot]] = next;
  if (next != kNoSlot) park_prev_[next] = prev;
  park_reg_[slot] = kInvalidPhysReg;
}

void IssueQueue::wake_waiters(PhysReg r) {
  if (r >= park_head_.size()) return;
  u32 i = park_head_[r];
  park_head_[r] = kNoSlot;
  while (i != kNoSlot) {
    const u32 next = park_next_[i];
    park_reg_[i] = kInvalidPhysReg;
    bm_set(scan_, i);
    i = next;
  }
}

}  // namespace tlrob

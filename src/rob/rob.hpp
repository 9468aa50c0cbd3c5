// Per-thread reorder buffer.
//
// The ROB owns the DynInst storage for its thread's in-flight window; other
// structures hold pointers into it. The window lives in a fixed ring slab
// (RingDeque) sized for the largest capacity the buffer can ever be granted
// (base + max_extra), allocated once at construction: dispatch and commit
// recycle slots through a free-list discipline implicit in the ring (the
// slot behind the tail is always the next reused), every slot is
// address-stable for the core's lifetime, and the hot loop never touches
// the heap. Pointers to popped (committed/squashed) entries dangle exactly
// as they did under the previous std::deque — the pool-audit check
// (verify/checks) proves no live structure keeps one.
//
// Lookups by tseq are binary searches: the window is sorted by strictly
// increasing tseq, but squashed numbers are never reused, so the range has
// gaps and an offset-from-head lookup would be wrong.
//
// Capacity is dynamic: `base_capacity` is the first-level size (32 in Table
// 1); the two-level controller grants/revokes `extra` entries when the
// shared second-level partition is allocated to this thread, up to the
// `max_extra` the slab was sized for.
#pragma once

#include "common/ring_deque.hpp"
#include "pipeline/dyn_inst.hpp"

namespace tlrob {

class ReorderBuffer {
 public:
  /// `max_extra` bounds what grant_extra may ever grant; the default covers
  /// the Table 1 shared second level (384) for directly-constructed test
  /// buffers. The core sizes it from the machine configuration.
  static constexpr u32 kDefaultMaxExtra = 384;

  explicit ReorderBuffer(u32 base_capacity, u32 max_extra = kDefaultMaxExtra)
      : insts_(base_capacity + max_extra),
        base_capacity_(base_capacity),
        max_extra_(max_extra) {}

  u32 base_capacity() const { return base_capacity_; }
  u32 capacity() const { return base_capacity_ + extra_; }
  u32 size() const { return insts_.size(); }
  bool empty() const { return insts_.empty(); }
  bool full() const { return size() >= capacity(); }

  /// True when the first level alone is exhausted (a reactive-allocation
  /// precondition even while the second level is attached).
  bool first_level_full() const { return size() >= base_capacity_; }

  void grant_extra(u32 entries);
  void revoke_extra() { extra_ = 0; }
  u32 extra() const { return extra_; }
  u32 max_extra() const { return max_extra_; }

  /// Appends a new instruction (dispatch). Requires !full().
  DynInst& push(DynInst&& di);

  DynInst* head() { return insts_.empty() ? nullptr : &insts_.front(); }
  const DynInst* head() const { return insts_.empty() ? nullptr : &insts_.front(); }
  DynInst* back() { return insts_.empty() ? nullptr : &insts_.back(); }

  /// Commit: removes the head. Requires non-empty.
  void pop_head();

  /// Lookup by per-thread sequence number (binary search over the window);
  /// nullptr if the instruction has committed or been squashed.
  DynInst* find(u64 tseq);
  const DynInst* find(u64 tseq) const;

  /// Pool-audit hook: true iff `p` points at a live slot of this window's
  /// slab (neither foreign storage nor a recycled/popped slot).
  bool owns(const DynInst* p) const { return insts_.owns(p); }

  /// Removes the suffix younger than `tseq` (youngest first), invoking
  /// `on_remove(DynInst&)` for each before the slot is recycled.
  template <typename F>
  void squash_after(u64 tseq, F&& on_remove) {
    while (!insts_.empty() && insts_.back().tseq > tseq) {
      on_remove(insts_.back());
      insts_.pop_back();
    }
  }

  /// The paper's DoD counter: number of not-yet-executed ("result valid" bit
  /// clear) instructions younger than `tseq`, scanning at most `window`
  /// entries after it (the first-level ROB in the hardware proposal).
  u32 count_unexecuted_younger(u64 tseq, u32 window) const;

  /// Measurement-only: number of instructions in the current window that
  /// transitively depend on `load` through register dataflow (Figures 1, 3
  /// and 7 plot this). Memory-carried dependences are not chased.
  u32 count_true_dependents(const DynInst& load) const;

  /// Iterates oldest -> youngest.
  template <typename F>
  void for_each(F&& f) {
    for (u32 i = 0; i < insts_.size(); ++i) f(insts_[i]);
  }
  template <typename F>
  void for_each(F&& f) const {
    for (u32 i = 0; i < insts_.size(); ++i) f(insts_[i]);
  }

  /// Test-only corruption hook for the invariant-audit suite: swaps two
  /// window entries by position, deliberately breaking the age order every
  /// consumer assumes. Never called by the simulator.
  void test_only_swap(u32 i, u32 j);

 private:
  RingDeque<DynInst> insts_;
  u32 base_capacity_;
  u32 max_extra_;
  u32 extra_ = 0;
  // Reusable taint scratch for count_true_dependents (one slot per physical
  // register, generation-stamped so it never needs clearing): the per-call
  // unordered_set showed up in the self-profile — the walk runs for every
  // correct-path L2-miss fill.
  mutable std::vector<u64> taint_gen_;
  mutable u64 taint_epoch_ = 0;
};

}  // namespace tlrob

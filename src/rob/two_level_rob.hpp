// The shared second-level ROB partition.
//
// Per the paper (§4): "the ROB entries comprising the second level can only
// be allocated as a unit to one thread at a time. Unless this storage is
// relinquished by a thread it was allocated to, no other thread is allowed
// to make use of it." Physically it may be a central structure or the upper
// portions of oversized private ROBs; the allocation semantics are what this
// class captures. On a CMP each SMT core owns a private instance — the
// partition is shared between a core's threads, never across cores.
#pragma once

#include "common/types.hpp"

namespace tlrob {

class SecondLevelRob {
 public:
  static constexpr ThreadId kNoOwner = 0xffffffffu;

  explicit SecondLevelRob(u32 entries) : entries_(entries) {}

  u32 entries() const { return entries_; }
  bool available() const { return owner_ == kNoOwner && entries_ > 0; }
  bool owned_by(ThreadId t) const { return owner_ == t; }
  ThreadId owner() const { return owner_; }

  /// Atomically grants the whole partition. Requires available().
  void allocate(ThreadId t, Cycle now);

  /// Relinquishes the partition. Requires an owner.
  void release(Cycle now);

  u64 total_allocations() const { return allocations_; }
  /// Cycles the partition spent allocated (for utilisation reporting).
  u64 busy_cycles(Cycle now) const;
  Cycle acquired_at() const { return acquired_at_; }

  /// Zeroes the utilisation accounting (warmup boundary); a live allocation
  /// is counted from `now` onward.
  void reset_accounting(Cycle now);

  /// Test-only corruption hook for the invariant-audit suite: rewrites the
  /// owner without the allocate/release protocol, desynchronising ownership
  /// from the granted windows. Never called by the simulator.
  void test_only_set_owner(ThreadId t) { owner_ = t; }

 private:
  u32 entries_;
  ThreadId owner_ = kNoOwner;
  u64 allocations_ = 0;
  Cycle acquired_at_ = 0;
  u64 busy_accum_ = 0;
};

}  // namespace tlrob

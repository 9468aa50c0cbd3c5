// The shared second-level ROB partition.
//
// Per the paper (§4): "the ROB entries comprising the second level can only
// be allocated as a unit to one thread at a time. Unless this storage is
// relinquished by a thread it was allocated to, no other thread is allowed
// to make use of it." Physically it may be a central structure or the upper
// portions of oversized private ROBs; the allocation semantics are what this
// class captures. On a CMP each SMT core owns a private instance — the
// partition is shared between a core's threads, never across cores.
//
// It is also the one ledger of grants and tenures: the rob.allocations,
// rob.allocations.tN, rob.busy.tN and rob2.busy_cycles counters all read it.
#pragma once

#include <numeric>
#include <vector>

#include "common/types.hpp"

namespace tlrob {

class SecondLevelRob {
 public:
  static constexpr ThreadId kNoOwner = 0xffffffffu;

  /// A partition of `entries` shared by threads 0 .. threads-1.
  SecondLevelRob(u32 entries, u32 threads) : entries_(entries), grants_(threads), held_(threads) {}

  u32 entries() const { return entries_; }
  bool available() const { return owner_ == kNoOwner && entries_ > 0; }
  bool owned_by(ThreadId t) const { return owner_ == t; }
  ThreadId owner() const { return owner_; }

  /// Atomically grants the whole partition. Requires available().
  void allocate(ThreadId t, Cycle now);

  /// Relinquishes the partition. Requires an owner.
  void release(Cycle now);

  Cycle acquired_at() const { return acquired_at_; }

  /// Grants per thread since the last reset_accounting.
  const std::vector<u64>& grants() const { return grants_; }
  u64 total_grants() const { return std::reduce(grants_.begin(), grants_.end(), u64{0}); }
  /// Cycles each thread held the partition, the open tenure counted up to
  /// `now`.
  std::vector<u64> held_cycles(Cycle now) const;
  u64 busy_cycles(Cycle now) const;

  /// Zeroes the ledger (warmup boundary). A partition held across it counts
  /// as one grant to its holder, held from `now` on.
  void reset_accounting(Cycle now);

  /// Test-only corruption hook for the invariant-audit suite: rewrites the
  /// owner without the allocate/release protocol, desynchronising ownership
  /// from the granted windows. Never called by the simulator.
  void test_only_set_owner(ThreadId t) { owner_ = t; }

 private:
  u32 entries_;
  ThreadId owner_ = kNoOwner;
  Cycle acquired_at_ = 0;
  std::vector<u64> grants_;  // per thread
  std::vector<u64> held_;    // per thread, closed tenures only
};

}  // namespace tlrob

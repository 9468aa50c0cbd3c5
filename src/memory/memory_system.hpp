// The full hierarchy of Table 1: split L1I/L1D, unified L2, memory channel.
//
// Data accesses are resolved with the latency-chain model: the entire path of
// an access is computed at issue time and returned as absolute cycles; cache
// line state carries in-flight fills so later accesses merge correctly.
#pragma once

#include <memory>

#include "memory/cache.hpp"
#include "memory/memory_channel.hpp"

namespace tlrob {

class SharedMemory;

struct MemoryConfig {
  CacheGeometry l1i{64 << 10, 2, 64};  // 64 KB, 2-way, 64 B
  CacheGeometry l1d{32 << 10, 4, 32};  // 32 KB, 4-way, 32 B
  CacheGeometry l2{2 << 20, 8, 128};   // 2 MB, 8-way, 128 B
  u32 l1d_hit_latency = 1;
  u32 l2_hit_latency = 10;
  MemoryChannelConfig channel{};
};

/// Timing outcome of one data access.
struct DataAccess {
  Cycle data_ready = 0;       // absolute cycle the value is available
  bool l1_hit = false;        // data was ready in L1 at lookup time
  bool l2_miss = false;       // the access (or the fill it merged into) went to memory
  Cycle l2_miss_detect = 0;   // cycle at which the L2 miss is discovered
  // Stall-taxonomy segment edges (absolute cycles, non-decreasing, all <=
  // data_ready): private L1/L2 time runs to seg_private, shared-LLC time to
  // seg_llc, DRAM bank/row time to seg_dram; any remainder up to data_ready
  // is channel-bus serialisation. Accesses that never leave the private
  // hierarchy (L1 hits, L2 hits, in-flight merges, legacy channel fills)
  // have all three edges == data_ready.
  Cycle seg_private = 0;
  Cycle seg_llc = 0;
  Cycle seg_dram = 0;
};

class MemorySystem {
 public:
  /// When `backend` is non-null, L2 misses route through the shared LLC/DRAM
  /// backend (CMP mode) instead of the private fixed-latency channel;
  /// `core_id` attributes the requests for cross-core MSHR merge accounting.
  /// With a null backend the hierarchy behaves exactly as before.
  explicit MemorySystem(const MemoryConfig& cfg, SharedMemory* backend = nullptr,
                        u32 core_id = 0);

  /// Data-side access issued at cycle `now` (address generation already
  /// accounted by the caller). Stores follow the same fill path (write-
  /// allocate) and dirty the line.
  DataAccess access_data(Addr addr, bool is_store, Cycle now);

  /// Instruction fetch of the line containing `pc`; returns the cycle the
  /// line is available (== now for an L1I hit, since Table 1's 1-cycle hit
  /// is part of the fetch stage itself).
  Cycle access_inst(Addr pc, Cycle now);

  /// Architectural cache pre-warming: installs the lines of
  /// [base, base+bytes) as instantly-ready and clean, bypassing the channel.
  /// Used before measurement so that cache-resident working sets start
  /// resident (the stand-in for Simpoint functional warming); touch order is
  /// LRU order, so content touched later survives capacity pressure.
  void prewarm_region(Addr base, u64 bytes);

  Cache& l1i() { return *l1i_; }
  Cache& l1d() { return *l1d_; }
  Cache& l2() { return *l2_; }
  MemoryChannel& channel() { return *channel_; }
  const Cache& l1i() const { return *l1i_; }
  const Cache& l1d() const { return *l1d_; }
  const Cache& l2() const { return *l2_; }
  const MemoryChannel& channel() const { return *channel_; }

 private:
  /// Looks up the L2 at `when`; returns when the line (containing `addr`)
  /// can be delivered upward, and whether memory was involved. The seg_*
  /// edges mirror DataAccess (all == ready for paths that stay private).
  struct L2Result {
    Cycle ready;
    bool from_memory;
    Cycle seg_private;
    Cycle seg_llc;
    Cycle seg_dram;
  };
  L2Result access_l2(Addr addr, Cycle when);

  MemoryConfig cfg_;
  std::unique_ptr<Cache> l1i_;
  std::unique_ptr<Cache> l1d_;
  std::unique_ptr<Cache> l2_;
  std::unique_ptr<MemoryChannel> channel_;
  SharedMemory* backend_ = nullptr;  // not owned; shared across cores
  u32 core_id_ = 0;
};

}  // namespace tlrob

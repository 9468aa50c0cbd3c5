// Main-memory channel (Table 1: 64-bit wide bus, 500-cycle first-chunk
// access, 2-cycle interchunk).
//
// DRAM access latency overlaps across outstanding misses (banked memory);
// the data bus serialises line transfers; a bounded MSHR pool limits the
// number of fills in flight. Together these give memory-level parallelism
// with the diminishing returns the paper's MLP argument relies on.
#pragma once

#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace tlrob {

struct MemoryChannelConfig {
  u32 bus_bytes = 8;           // 64-bit wide
  Cycle first_chunk = 500;     // access latency to the first chunk
  Cycle interchunk = 2;        // per additional chunk
  /// Critical-chunk-first delivery: the requester is unblocked once this
  /// many bytes have arrived (one L1-D line); the rest of the L2 line
  /// streams in the background without serialising later fills. 0 disables
  /// (full-line occupancy, the pessimistic model).
  u32 critical_bytes = 32;
  u32 mshr_entries = 24;       // outstanding line fills
};

struct MemoryChannelStats {
  u64 fills = 0;
  u64 writebacks = 0;
  u64 mshr_full_stalls = 0;
};

inline constexpr auto kMemoryChannelStatFields = std::to_array<StatField<MemoryChannelStats>>({
    {&MemoryChannelStats::fills, "fills"},
    {&MemoryChannelStats::writebacks, "writebacks"},
    {&MemoryChannelStats::mshr_full_stalls, "mshr_full_stalls"},
});
static_assert(names_every_field(kMemoryChannelStatFields));

class MemoryChannel {
 public:
  /// `line_bytes` is the transfer unit: the owning L2's line size.
  MemoryChannel(const MemoryChannelConfig& cfg, u32 line_bytes);

  /// Requests a full-line fill at cycle `when`; returns the cycle at which
  /// the complete line has arrived.
  Cycle request_fill(Cycle when);

  /// Queues a dirty-line writeback: occupies bus bandwidth but nobody waits
  /// for it.
  void request_writeback(Cycle when);

  /// Transfer time of one line over the bus.
  Cycle transfer_cycles() const { return transfer_; }

  const MemoryChannelStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  void reset();

 private:
  /// Drops completed fills and returns the earliest outstanding completion
  /// (or `when` if the MSHR pool has room).
  Cycle admit(Cycle when);
  void push_done(Cycle done);

  MemoryChannelConfig cfg_;
  Cycle transfer_;
  Cycle bus_free_ = 0;
  // Outstanding fill completions, oldest at `head_`. Completion times are
  // non-decreasing (every fill's `done` is at least `bus_free_`, which is
  // the previous fill's `done`), so a plain FIFO ring is ordered by value:
  // the front IS the earliest outstanding completion, and admit() is O(1)
  // where the old priority queue paid a heap op per fill. The ring grows
  // (rarely) because requests stalled on a full MSHR pool are still pushed,
  // so occupancy transiently overshoots mshr_entries.
  std::vector<Cycle> fifo_;  // capacity kept a power of two
  u32 head_ = 0;
  u32 count_ = 0;
  MemoryChannelStats stats_;
};

}  // namespace tlrob

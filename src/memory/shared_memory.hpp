// Shared memory-side backend for CMP configurations: one LLC + banked DRAM
// behind every core's private L2.
//
// The backend keeps the latency-chain contract of the per-core hierarchy —
// request_fill() resolves the whole LLC/DRAM path at issue time and returns
// an absolute completion cycle — so cores stay free to idle-fast-forward
// independently of the memory side. Cross-core contention is real, though:
// the LLC's line state is shared (thrashing threads evict each other), a
// bounded MSHR pool throttles concurrent fills from all cores, in-flight
// fills merge across cores, and DRAM bank/row/bus conflicts serialise in
// arrival order.
//
// Unlike MemoryChannel, completion times here are NOT monotonic in request
// order (two channels' banks complete out of order), so the outstanding-fill
// pool is a small min-scanned vector rather than a FIFO ring. The pool also
// records which core initiated each fill, which is what makes cross-core
// MSHR merges attributable.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "memory/cache.hpp"
#include "memory/dram.hpp"

namespace tlrob {

struct LlcConfig {
  /// Routes L2 misses through the shared backend even for num_cores == 1
  /// (a single-core machine with an LLC). CMP machines always enable it.
  bool enabled = false;
  CacheGeometry geo{8 << 20, 16, 128};  // 8 MB, 16-way, 128 B
  u32 hit_latency = 24;
  u32 mshr_entries = 32;  // outstanding DRAM fills, all cores
};

/// The backend's own counters, exported under "llc." next to the LLC
/// cache's.
struct SharedMemoryStats {
  u64 cross_core_merges = 0;
  u64 mshr_full_stalls = 0;
  u64 writebacks_in = 0;
  u64 writeback_misses = 0;
};

inline constexpr auto kSharedMemoryStatFields = std::to_array<StatField<SharedMemoryStats>>({
    {&SharedMemoryStats::cross_core_merges, "cross_core_merges"},
    {&SharedMemoryStats::mshr_full_stalls, "mshr_full_stalls"},
    {&SharedMemoryStats::writebacks_in, "writebacks_in"},
    {&SharedMemoryStats::writeback_misses, "writeback_misses"},
});
static_assert(names_every_field(kSharedMemoryStatFields));

class SharedMemory {
 public:
  SharedMemory(const LlcConfig& llc, const DramConfig& dram);

  struct Fill {
    Cycle ready = 0;        // absolute cycle the line reaches the requesting L2
    bool llc_miss = false;  // the line (or the fill it merged into) went to DRAM
    // Stall-taxonomy segment edges of the latency chain (absolute cycles,
    // only meaningful when <= ready). LLC time (tag check + MSHR-pool
    // queueing + cross-core merge wait) runs to seg_llc_end, DRAM bank/row
    // time to seg_dram_end, and the remainder up to `ready` is channel-bus
    // serialisation. LLC hits and merged fills attribute the whole chain to
    // the LLC bucket (both edges == ready): the wait is by definition
    // queueing behind shared-cache state.
    Cycle seg_llc_end = 0;
    Cycle seg_dram_end = 0;
  };

  /// L2-miss fill from core `core` issued at cycle `when` (the core's L2 tag
  /// check is already paid). Returns the completion cycle and whether DRAM
  /// was involved — the CMP-mode trigger for the second-level ROB.
  Fill request_fill(Addr addr, Cycle when, u32 core);

  /// Dirty L2 victim writeback. Absorbed by the LLC when the line is
  /// resident (inclusive-victim path: mark dirty, no traffic); otherwise it
  /// goes to DRAM.
  void request_writeback(Addr addr, Cycle when);

  /// MSHR-pool and DRAM invariants; empty string when consistent.
  std::string audit_check() const;

  Cache& llc() { return *llc_; }
  const Cache& llc() const { return *llc_; }
  DramModel& dram() { return *dram_; }
  const DramModel& dram() const { return *dram_; }
  const SharedMemoryStats& stats() const { return stats_; }
  const LlcConfig& config() const { return cfg_; }

  u32 inflight_count() const { return static_cast<u32>(inflight_.size()); }

  /// Attaches a Chrome trace writer (nullptr detaches) for the backend's
  /// pseudo-process: an MSHR-pool occupancy counter track plus cross-core
  /// merge instants on an "llc" track (tid = one past the DRAM bank tids),
  /// and per-bank row-buffer instants via DramModel::attach_chrome_trace.
  /// Every hook fires inside a request call — state-changing ticks only — so
  /// the trace is identical under the per-core idle fast-forward.
  void attach_chrome_trace(obs::ChromeTraceWriter* w);

  void reset_stats();

  /// Corruption hook for the invariant-audit tests: duplicates the newest
  /// outstanding fill so the MSHR pool self-check trips.
  void corrupt_inflight_for_test();

 private:
  struct InflightFill {
    u64 line;    // addr >> line_shift
    u32 core;    // initiating core (cross-core merge attribution)
    Cycle done;
  };

  /// Drops completed fills and returns the earliest cycle >= `when` at which
  /// the MSHR pool has a free entry.
  Cycle admit(Cycle when);

  LlcConfig cfg_;
  u32 line_shift_;
  std::unique_ptr<Cache> llc_;
  std::unique_ptr<DramModel> dram_;
  // Outstanding DRAM fills. Completions are non-monotonic across channels,
  // so admit() min-scans; the pool is bounded by mshr_entries, so the scan
  // is short.
  std::vector<InflightFill> inflight_;
  obs::ChromeTraceWriter* trace_ = nullptr;
  ThreadId llc_tid_ = 0;  // trace track one past the DRAM bank tracks
  SharedMemoryStats stats_;
};

}  // namespace tlrob

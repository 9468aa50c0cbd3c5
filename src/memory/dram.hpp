// Banked DRAM timing model (channels × banks, open-page row buffers).
//
// Replaces the fixed-latency MemoryChannel behind the shared LLC in CMP
// configurations. The model keeps the latency-chain discipline of the rest
// of the memory system: a request's entire timing is resolved at issue time
// from per-bank row-buffer state and per-channel bus occupancy, and the
// caller receives an absolute completion cycle. There are no autonomous
// memory-side events, which is what keeps multi-core idle fast-forward safe.
//
// Timing follows the classic tCAS/tRCD/tRP decomposition:
//   row-buffer hit       tCAS                  (column access only)
//   row-buffer miss      tRCD + tCAS           (activate a closed bank)
//   row-buffer conflict  tRP + tRCD + tCAS     (precharge, then activate)
//
// Scheduling is FR-FCFS-shaped within the latency-chain constraint: requests
// serialise per bank (a bank's busy window is its row command time), the
// open-page policy keeps the last row latched so same-row streams hit, and
// each channel's data bus serialises transfers. True request reordering is
// impossible when every access is resolved at issue time, so this is the
// deterministic first-ready approximation: arrival order *is* service order,
// and row locality is rewarded through the open row buffer.
#pragma once

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace tlrob {

namespace obs {
class ChromeTraceWriter;
}

struct DramConfig {
  u32 channels = 2;           // line-interleaved
  u32 banks_per_channel = 8;
  u32 row_bytes = 2048;       // row-buffer size per bank
  Cycle tcas = 240;           // column access (row-buffer hit)
  Cycle trcd = 160;           // activate (closed bank)
  Cycle trp = 100;            // precharge (row conflict)
  u32 bus_bytes = 8;          // per-channel data-bus width
  Cycle interchunk = 2;       // per bus chunk
  /// Critical-chunk-first: requester unblocks after this many bytes (0 =
  /// full line), mirroring MemoryChannelConfig::critical_bytes.
  u32 critical_bytes = 32;
  /// Open-page keeps the accessed row latched (hit/conflict dynamics);
  /// closed-page auto-precharges after every access (every access pays tRCD).
  bool open_page = true;

  bool operator==(const DramConfig&) const = default;
};

struct DramStats {
  u64 reads = 0;
  u64 writebacks = 0;
  u64 row_hits = 0;
  u64 row_misses = 0;
  u64 row_conflicts = 0;
};

inline constexpr auto kDramStatFields = std::to_array<StatField<DramStats>>({
    {&DramStats::reads, "reads"},
    {&DramStats::writebacks, "writebacks"},
    {&DramStats::row_hits, "row_hits"},
    {&DramStats::row_misses, "row_misses"},
    {&DramStats::row_conflicts, "row_conflicts"},
});
static_assert(names_every_field(kDramStatFields));

class DramModel {
 public:
  enum class RowOutcome : u8 { kHit, kMiss, kConflict };

  struct Access {
    Cycle done = 0;            // line fully transferred (fill completion)
    RowOutcome outcome = RowOutcome::kMiss;
    /// Cycle the bank delivers data (row command chain complete, before the
    /// channel-bus transfer) — the DRAM-core / bus boundary of the latency
    /// chain, used by the stall-cycle taxonomy to split DRAM time from bus
    /// serialisation time.
    Cycle row_done = 0;
  };

  /// `line_bytes` is the transfer unit: the owning cache's line size.
  DramModel(const DramConfig& cfg, u32 line_bytes);

  /// Line read (fill) issued at `when`; returns the completion cycle and the
  /// row-buffer outcome. Requests to the same bank serialise; requests to
  /// distinct banks/channels overlap.
  Access read(Addr addr, Cycle when);

  /// Dirty-line writeback: occupies the bank and the channel bus but nobody
  /// waits for it.
  Access write(Addr addr, Cycle when);

  /// Bank/bus state invariants; empty string when consistent.
  std::string audit_check() const;

  // Introspection for the timing tests.
  struct BankRef {
    u32 channel;
    u32 bank;
    u64 row;
  };
  BankRef map(Addr addr) const;
  Cycle bank_busy_until(u32 channel, u32 bank) const;
  bool bank_row_open(u32 channel, u32 bank) const;
  Cycle transfer_cycles() const { return transfer_; }

  const DramConfig& config() const { return cfg_; }
  const DramStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  void reset();

  /// Attaches a Chrome trace writer (nullptr detaches): every bank access
  /// records a row-buffer instant ("row_hit" / "row_open" / "row_conflict")
  /// on a per-bank track (tid = channel * banks_per_channel + bank) with the
  /// row number as an arg. Pure recording inside the request path — timing
  /// and counters are unchanged, so attachment cannot perturb a run.
  void attach_chrome_trace(obs::ChromeTraceWriter* w);

 private:
  struct Timing {
    Cycle data_at;
    RowOutcome outcome;
  };
  /// Resolves bank state at `when`: row outcome, command timing, row-buffer
  /// update. Shared by read and write.
  Timing access_bank(Addr addr, Cycle when);

  DramConfig cfg_;
  u32 line_shift_;
  u32 channel_shift_;   // log2(channels)
  u32 bank_shift_;      // log2(banks_per_channel)
  u64 lines_per_row_;   // row_bytes / line size
  u32 row_group_shift_; // log2(lines_per_row_)
  Cycle transfer_;
  // Structure-of-arrays bank state, channel-major ([channel * banks + bank]).
  std::vector<Cycle> bank_busy_until_;
  std::vector<u64> bank_open_row_;
  std::vector<u8> bank_row_valid_;
  std::vector<Cycle> bus_free_;  // per channel
  obs::ChromeTraceWriter* trace_ = nullptr;
  DramStats stats_;
};

}  // namespace tlrob

// Deterministic interval telemetry: every N cycles the core snapshots the
// occupancy dynamics the paper's argument is made of — how full each
// thread's window is, who holds the shared second level, how many L2 misses
// are in flight (memory-level parallelism), and the DoD proxy the
// allocation schemes decide on — into an in-memory time series.
//
// Determinism contract: a sample is a pure function of machine state at its
// cycle, and every quantity captured is invariant across a provably idle
// cycle. The core therefore *replays* sample points that fall inside an
// idle-cycle fast-forward from the quiescent state (the same way it replays
// the per-cycle stall counters), and the series is bit-identical whether or
// not the fast-forward fired. tests/test_obs.cpp pins this.
//
// Export format: JSONL, one object per sample, fixed key order and number
// formatting (runner/json.hpp writers), so parallel campaign workers
// produce byte-identical files.
#pragma once

#include <array>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tlrob::obs {

/// Stall-cycle taxonomy: every cycle of a thread's measurement window is
/// attributed to exactly one class (closed accounting — the per-thread sum
/// equals the run's cycle count, pinned by ctest). Classification is a pure
/// function of quiescent machine state plus the commit delta of the cycle,
/// which is what lets fast-forwarded spans be attributed piecewise from the
/// latency-chain segment edges without executing the skipped cycles.
enum class StallClass : u8 {
  kCommit = 0,      // committed at least one instruction (or head done,
                    //  commit-bandwidth/ROB-order bound)
  kFrontend,        // ROB empty: fetch/decode starvation (incl. I-miss)
  kMemPrivate,      // head blocked on a load inside the private L1/L2
  kMemLlc,          // head load waiting on shared-LLC tag/MSHR queueing or a
                    //  cross-core merged fill
  kMemDram,         // head load inside the DRAM bank/row command chain
  kMemBus,          // head load serialised on a DRAM channel bus transfer
  kRob2Wait,        // long-latency load registered, second level not granted
  kOther,           // everything else (issue/exec latency, squash recovery)
};
inline constexpr size_t kStallClassCount = 8;

/// Short dotted-counter-safe names, indexed by StallClass.
const char* stall_class_name(StallClass c);

/// Per-thread slice of one sample.
struct ThreadSample {
  u32 rob_occ = 0;         // instructions in the thread's ROB window
  u32 rob_cap = 0;         // current capacity (base + granted extra)
  u32 iq_occ = 0;          // this thread's shared-IQ entries
  u32 lsq_occ = 0;         // LSQ entries
  u32 dod_proxy = 0;       // unexecuted insts in the first-level window
  u32 outstanding_l2 = 0;  // in-flight L2 misses (MLP)
  u64 committed = 0;       // cumulative committed (measurement-relative)
  /// Cumulative stall-taxonomy cycles (measurement-relative), indexed by
  /// StallClass; sums to the sample's cycle offset by construction.
  std::array<u64, kStallClassCount> stall{};

  bool operator==(const ThreadSample&) const = default;
};

/// One interval boundary. `cycle` is the absolute simulator cycle the
/// sample is labelled with (always a multiple of the interval).
struct IntervalSample {
  Cycle cycle = 0;
  ThreadId second_level_owner = 0xffffffffu;  // SecondLevelRob::kNoOwner
  u32 iq_occ_total = 0;
  u32 llc_mshr_occ = 0;  // shared-backend MSHR pool occupancy (0 w/o backend)
  std::vector<ThreadSample> threads;

  bool operator==(const IntervalSample&) const = default;
};

/// The recorded series plus its period. The core owns one and appends; the
/// result plumbing (RunResult, campaign records, simulate sample_out=) copy
/// or serialise it.
class IntervalSeries {
 public:
  IntervalSeries() = default;
  explicit IntervalSeries(Cycle interval) : interval_(interval) {}

  Cycle interval() const { return interval_; }
  bool enabled() const { return interval_ != 0; }
  const std::vector<IntervalSample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }
  size_t size() const { return samples_.size(); }

  void add(IntervalSample&& s) { samples_.push_back(std::move(s)); }
  /// Measurement-boundary reset: drops recorded samples, keeps the period
  /// (subsequent samples stay aligned to absolute interval boundaries).
  void reset() { samples_.clear(); }

  /// One JSON object per line. Per-thread interval IPC is derived from the
  /// committed deltas between consecutive samples (the first sample's delta
  /// baseline is 0 committed).
  void write_jsonl(std::ostream& os) const;

  bool operator==(const IntervalSeries& o) const {
    return interval_ == o.interval_ && samples_ == o.samples_;
  }

 private:
  Cycle interval_ = 0;
  std::vector<IntervalSample> samples_;
};

/// Occupancy-distribution summary of a series, flattened to the dotted
/// counter namespace so it rides inside JobRecord::counters and round-trips
/// through every campaign sink unchanged:
///   obs.samples                 — number of samples recorded
///   obs.tN.rob_occ_p50/p90/p99  — ROB-occupancy percentiles (Histogram)
///   obs.tN.iq_occ_p90           — shared-IQ share percentile
///   obs.tN.mlp_p90              — outstanding-L2 (MLP) percentile
///   obs.tN.dod_p90              — DoD-proxy percentile
/// Empty when the series is empty (so disabled telemetry adds no keys).
std::map<std::string, u64> series_summary_counters(const IntervalSeries& series);

/// Flattens a run's closed stall-cycle taxonomy (RunResult::stall_cycles,
/// machine-global thread order) into the counter namespace:
///   stall.tN.<class>_cycles — one key per thread per StallClass.
/// Empty input (taxonomy off) adds no keys.
std::map<std::string, u64> stall_summary_counters(
    const std::vector<std::array<u64, kStallClassCount>>& per_thread);

/// CMP-wide interference summary, derived from the merged series and the
/// machine-global taxonomy:
///   obs.cmp.cores             — core count
///   obs.cmp.llc_mshr_p90      — MSHR-pool occupancy percentile over samples
///   obs.cmp.stall_llc_cycles  — total cycles attributed to LLC contention
///   obs.cmp.stall_dram_cycles — total DRAM bank/row cycles
///   obs.cmp.stall_bus_cycles  — total channel-bus serialisation cycles
/// Empty when the taxonomy is empty (telemetry off).
std::map<std::string, u64> cmp_summary_counters(
    const IntervalSeries& series,
    const std::vector<std::array<u64, kStallClassCount>>& per_thread, u32 num_cores);

/// Machine-wide series of a CMP run: per-sample, the cores' thread slices
/// concatenate in core order (machine-global thread indexing), the shared-IQ
/// occupancies sum, and the second-level-owner column reports core 0's owner
/// (the partition is per-core; the per-thread rob_cap columns carry each
/// core's grant). Cores tick in lockstep, so every input must have the same
/// interval, sample count, and cycle labels — anything else is a logic
/// error.
IntervalSeries merge_core_series(const std::vector<const IntervalSeries*>& cores);

}  // namespace tlrob::obs

// TraceWorkload (shared, immutable) + TraceThreadSource (per-thread replay).
//
// A TraceWorkload is built once per distinct trace: one streaming pass
// lowers the record stream into a Program (lowering.hpp) and records the
// trace's identity (record count, FNV-1a content hash). Each simulated
// thread then replays the stream through its own TraceThreadSource — a
// ThreadContext whose refill() decodes records instead of walking the
// synthetic generators, so SmtCore's fetch hot path is untouched. Replay
// rewinds to record 0 at end-of-trace (fixed-instruction-budget runs), and
// every dynamic fact the timing model consumes (branch outcome, actual
// target, memory address) comes from the trace, keeping the predictors and
// the memory system honest.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "trace/lowering.hpp"
#include "trace/reader.hpp"
#include "workload/thread_context.hpp"

namespace tlrob::trace {

class TraceWorkload {
 public:
  /// Loads and lowers a trace file (gzip sniffed). Throws std::runtime_error
  /// on missing/empty/corrupt input.
  static std::shared_ptr<const TraceWorkload> from_file(const std::string& path);

  /// Builds from in-memory records (synthesized traces, tests) — no file IO.
  static std::shared_ptr<const TraceWorkload> from_records(
      const std::string& name, const std::vector<ChampSimRecord>& records);

  /// Opens a fresh decode stream over the trace bytes (one per thread).
  std::unique_ptr<TraceReader> open_reader() const;

  const std::string& name() const { return name_; }
  const TraceLowering& lowering() const { return lowering_; }

 private:
  TraceWorkload() = default;

  std::string name_;
  TraceLowering lowering_;
  std::string path_;                           // file-backed when non-empty
  std::shared_ptr<const std::vector<u8>> mem_;  // memory-backed otherwise
};

/// Builds the Benchmark wrapper SmtCore consumes: the lowered program, a
/// wrong-path address spec covering the trace's observed data footprint, a
/// dummy outcome generator (trace branches carry their own outcomes), and a
/// source factory constructing TraceThreadSource instances.
Benchmark trace_benchmark(std::shared_ptr<const TraceWorkload> workload);

class TraceThreadSource final : public ThreadContext {
 public:
  TraceThreadSource(const Benchmark& bench, Addr addr_space_base, u64 salt,
                    std::shared_ptr<const TraceWorkload> workload);

  void append_source_counters(u32 tid, std::map<std::string, u64>& counters) const override;

  /// None: the trace stream itself warms the hierarchy.
  std::vector<AddrRegion> warm_regions(u32 /*tier*/) const override { return {}; }

  u64 unmapped_fallbacks() const { return unmapped_; }
  const TraceReader& reader() const { return *reader_; }

 protected:
  void refill() override;

 private:
  void advance_record();

  std::shared_ptr<const TraceWorkload> workload_;
  std::unique_ptr<TraceReader> reader_;
  ChampSimRecord cur_{};
  u32 cur_block_ = 0;
  ChampSimRecord next_{};
  u32 next_block_ = 0;
  std::vector<ArchOp> uops_;  // lowered uops of cur_, replayed in order
  u32 uop_pos_ = 0;
  u64 unmapped_ = 0;
};

}  // namespace tlrob::trace

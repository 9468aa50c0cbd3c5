// Structured event trace in the Chrome trace-event JSON format, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// The writer gives each hardware thread its own track (pid P / tid N, named
// via thread_name metadata; a single-core run uses the default pid 0, the
// CMP engine gives every core its own pid/process and the shared LLC/DRAM
// backend a pseudo-process after the last core) and records:
//   - duration spans ("X" complete events): second-level grant lifecycles
//     (acquire -> release, with the trigger load and decision DoD as args)
//     and L2-miss shadows (miss detection -> line fill, per load);
//   - instant events ("i"): second-level allocation requests (candidate
//     registration), squashes, and DoD snapshots at decision points;
//   - per-instruction instants, only inside the instruction window
//     (set_instruction_window; empty by default): each instruction's
//     fetch / dispatch / issue / complete / commit and, when a squash
//     discards it, "squashed", with its tseq, pc, op (the OpClass value),
//     addr on memory ops, wp=1 on the wrong path and spec=1 on an issue
//     that read a speculatively woken operand;
//   - counter tracks ("C"): per-thread ROB occupancy / outstanding L2
//     misses at every interval-sampler boundary, when sampling is on.
//
// Timestamps are simulator cycles written into the microsecond `ts` field —
// the standard trick for cycle-accurate traces (1 cycle renders as 1 us).
//
// Interaction with the idle-cycle fast-forward: every span edge and instant
// above happens in a tick that changed machine state, and a fast-forwarded
// cycle is by construction one in which nothing changed, so the event trace
// is identical with fast-forwarding on or off and the writer does not pin
// the core to cycle-by-cycle execution. Counter samples inside a skipped
// span are replayed by the sampler.
//
// Host code owns the writer, attaches it to a core
// (SmtCore::attach_chrome_trace) before running, and serialises with write()
// afterwards. Detached (the default) costs one null-pointer test per hooked
// event, never per cycle.
//
// Events are buffered until write(), so their storage is kept flat: event
// names and argument keys are `const char*` (every call site passes a string
// literal), up to TraceArgs::kMax arguments sit inline in the event, and the
// buffer is a deque, so growing it never copies what is already recorded.
// Only the metadata labels (thread and process names) are owned strings.
#pragma once

#include <array>
#include <deque>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tlrob::obs {

/// One key/value argument pair rendered into a trace event's "args" object.
/// The key must outlive the writer (call sites pass string literals).
struct TraceArg {
  const char* key = "";
  u64 value = 0;
};

/// A trace event's arguments, stored inline in the event.
class TraceArgs {
 public:
  static constexpr u32 kMax = 6;

  TraceArgs() = default;
  TraceArgs(std::initializer_list<TraceArg> args) {
    for (const TraceArg& a : args) push_back(a);
  }
  /// Appends one argument; more than kMax is a programming error.
  void push_back(const TraceArg& a);
  const TraceArg* begin() const { return items_.data(); }
  const TraceArg* end() const { return items_.data() + size_; }
  bool empty() const { return size_ == 0; }

 private:
  std::array<TraceArg, kMax> items_{};
  u8 size_ = 0;
};

class ChromeTraceWriter {
 public:
  /// Sets the process id stamped on every subsequently recorded event
  /// (default 0). The CMP engine assigns pid = core index to each core's
  /// writer and pid = num_cores to the shared-backend writer so Perfetto
  /// groups tracks by core.
  void set_pid(u32 pid) { pid_ = pid; }
  u32 pid() const { return pid_; }

  /// Names this writer's process (process_name metadata under the current
  /// pid); typically "core0" or "shared llc/dram".
  void set_process_name(const std::string& name);

  /// Names the track for hardware thread `tid` (shown by Perfetto in track
  /// order); typically "t0 <benchmark>".
  void set_thread_name(ThreadId tid, const std::string& name);

  /// Records per-instruction stage instants for cycles in [start, end);
  /// the window is empty by default, so only the machine-level events above
  /// are recorded.
  void set_instruction_window(Cycle start, Cycle end) {
    window_start_ = start;
    window_end_ = end;
  }
  bool in_instruction_window(Cycle now) const {
    return now >= window_start_ && now < window_end_;
  }

  /// Duration span [start, end) on `tid`'s track. `name` must outlive the
  /// writer, as for every event below.
  void complete_event(ThreadId tid, const char* name, Cycle start, Cycle end,
                      const TraceArgs& args = {});

  /// Thread-scoped instant event at `ts`.
  void instant_event(ThreadId tid, const char* name, Cycle ts, const TraceArgs& args = {});

  /// Counter-track value at `ts` ("C" event; Perfetto renders a stepped
  /// area chart per counter name).
  void counter_event(ThreadId tid, const char* name, Cycle ts, u64 value);

  size_t event_count() const { return events_.size(); }

  /// Number of recorded events with the given ph/name (test helper).
  size_t count_named(char ph, const std::string& name) const;

  /// Serialises the whole trace as one JSON document ({"traceEvents": [...]}).
  /// Events are written in recording order; trace viewers sort by ts.
  void write(std::ostream& os) const;

  /// Serialises several writers (e.g. one per core plus the shared backend)
  /// into a single JSON document. Each writer's events keep their own pid, so
  /// the merged trace renders as one process group per writer.
  static void write_merged(std::ostream& os,
                           const std::vector<const ChromeTraceWriter*>& writers);

  void clear() {
    events_.clear();
    labels_.clear();
  }

 private:
  struct Event {
    Cycle ts = 0;
    Cycle dur = 0;          // 'X' only
    const char* name = "";  // all but 'M'
    u32 pid = 0;
    ThreadId tid = 0;
    u32 label = 0;          // 'M' only: index into labels_
    char ph = 'i';          // 'X' | 'i' | 'C' | 'M'
    bool proc_meta = false;  // 'M' only: process_name (vs thread_name)
    TraceArgs args;
  };

  void metadata(bool proc_meta, ThreadId tid, const std::string& label);
  void write_events(std::ostream& os, bool& first) const;

  u32 pid_ = 0;
  Cycle window_start_ = 0;
  Cycle window_end_ = 0;
  std::deque<Event> events_;
  std::vector<std::string> labels_;
};

}  // namespace tlrob::obs

// Pipeline event tracing: a human-readable per-instruction event log
// (fetch / dispatch / issue / complete / commit / squash), gated to a cycle
// window so multi-million-cycle runs can dump just the region under study.
//
// Attach a stream before running:
//   core.tracer().attach(&std::cerr, 1000, 1200);
// or from the CLI driver: ./simulate mix=1 trace=1000:1200
#pragma once

#include <ostream>
#include <string>

#include "common/types.hpp"
#include "isa/opcode.hpp"
#include "pipeline/dyn_inst.hpp"

namespace tlrob {

class PipelineTracer {
 public:
  /// Routes events in cycle window [start, end) to `os` (nullptr detaches).
  void attach(std::ostream* os, Cycle start = 0, Cycle end = kNeverCycle) {
    os_ = os;
    start_ = start;
    end_ = end;
  }

  bool active(Cycle now) const { return os_ != nullptr && now >= start_ && now < end_; }

  /// A stream is attached (regardless of the cycle window). Tracing leaves the
  /// idle-cycle fast-forward on: events and notes only happen in ticks it never
  /// skips (state-changing ones), so the log is the same.
  bool attached() const { return os_ != nullptr; }

  /// One line per instruction event. `extra` is appended verbatim.
  void event(Cycle now, const char* stage, const DynInst& di, const char* extra = "") {
    if (!active(now)) return;
    *os_ << now << " t" << di.tid << " #" << di.tseq << " " << stage << " "
         << op_class_name(di.op) << " pc=0x" << std::hex << di.pc << std::dec;
    if (di.is_mem()) *os_ << " addr=0x" << std::hex << di.mem_addr << std::dec;
    if (di.wrong_path) *os_ << " WP";
    if (*extra != '\0') *os_ << " " << extra;
    *os_ << "\n";
  }

  /// Free-form machine-level note (squash extents, partition grants, ...).
  /// Prefer note_if at call sites whose message needs std::string
  /// construction — this overload's argument is built even when the tracer
  /// is detached or outside its window.
  void note(Cycle now, const std::string& text) {
    if (!active(now)) return;
    *os_ << now << " -- " << text << "\n";
  }

  /// Lazy note: `build` (any callable returning something streamable into
  /// note()) runs only when the tracer is active on `now`, so hot paths pay
  /// nothing for message formatting on the millions of untraced cycles.
  template <typename F>
  void note_if(Cycle now, F&& build) {
    if (active(now)) note(now, build());
  }

 private:
  std::ostream* os_ = nullptr;
  Cycle start_ = 0;
  Cycle end_ = kNeverCycle;
};

}  // namespace tlrob

#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "runner/json.hpp"

namespace tlrob::obs {

using runner::json_escape;
using runner::json_u64;

void TraceArgs::push_back(const TraceArg& a) {
  if (size_ == kMax) throw std::logic_error("TraceArgs: more than kMax arguments");
  items_[size_++] = a;
}

void ChromeTraceWriter::metadata(bool proc_meta, ThreadId tid, const std::string& label) {
  Event& e = events_.emplace_back();
  e.ph = 'M';
  e.proc_meta = proc_meta;
  e.pid = pid_;
  e.tid = tid;
  e.label = static_cast<u32>(labels_.size());
  labels_.push_back(label);
}

void ChromeTraceWriter::set_process_name(const std::string& name) { metadata(true, 0, name); }

void ChromeTraceWriter::set_thread_name(ThreadId tid, const std::string& name) {
  metadata(false, tid, name);
}

void ChromeTraceWriter::complete_event(ThreadId tid, const char* name, Cycle start, Cycle end,
                                       const TraceArgs& args) {
  Event& e = events_.emplace_back();
  e.ph = 'X';
  e.pid = pid_;
  e.tid = tid;
  e.name = name;
  e.ts = start;
  e.dur = end >= start ? end - start : 0;
  e.args = args;
}

void ChromeTraceWriter::instant_event(ThreadId tid, const char* name, Cycle ts,
                                      const TraceArgs& args) {
  Event& e = events_.emplace_back();
  e.ph = 'i';
  e.pid = pid_;
  e.tid = tid;
  e.name = name;
  e.ts = ts;
  e.args = args;
}

void ChromeTraceWriter::counter_event(ThreadId tid, const char* name, Cycle ts, u64 value) {
  Event& e = events_.emplace_back();
  e.ph = 'C';
  e.pid = pid_;
  e.tid = tid;
  e.name = name;
  e.ts = ts;
  e.args.push_back({"value", value});
}

size_t ChromeTraceWriter::count_named(char ph, const std::string& name) const {
  return static_cast<size_t>(std::count_if(events_.begin(), events_.end(), [&](const Event& e) {
    // Metadata events serialise under the fixed names "thread_name" /
    // "process_name" (the stored name is the label), so match what write()
    // emits.
    if (e.ph == 'M')
      return ph == 'M' && name == (e.proc_meta ? "process_name" : "thread_name");
    return e.ph == ph && name == e.name;
  }));
}

void ChromeTraceWriter::write_events(std::ostream& os, bool& first) const {
  for (const Event& e : events_) {
    if (!first) os << ",\n";
    first = false;
    if (e.ph == 'M') {
      // Metadata: args.name carries the label. process_name events omit tid
      // (they label the whole pid group).
      os << "{\"ph\":\"M\",\"pid\":" << json_u64(e.pid);
      if (!e.proc_meta) os << ",\"tid\":" << json_u64(e.tid);
      os << ",\"name\":\"" << (e.proc_meta ? "process_name" : "thread_name")
         << "\",\"args\":{\"name\":" << json_escape(labels_[e.label]) << "}}";
      continue;
    }
    os << "{\"ph\":\"" << e.ph << "\",\"pid\":" << json_u64(e.pid)
       << ",\"tid\":" << json_u64(e.tid) << ",\"name\":" << json_escape(e.name)
       << ",\"ts\":" << json_u64(e.ts);
    if (e.ph == 'X') os << ",\"dur\":" << json_u64(e.dur);
    if (e.ph == 'i') os << ",\"s\":\"t\"";  // thread-scoped instant
    if (!e.args.empty()) {
      os << ",\"args\":{";
      bool first_arg = true;
      for (const TraceArg& a : e.args) {
        if (!first_arg) os << ",";
        first_arg = false;
        os << json_escape(a.key) << ":" << json_u64(a.value);
      }
      os << "}";
    }
    os << "}";
  }
}

void ChromeTraceWriter::write(std::ostream& os) const {
  write_merged(os, {this});
}

void ChromeTraceWriter::write_merged(std::ostream& os,
                                     const std::vector<const ChromeTraceWriter*>& writers) {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const ChromeTraceWriter* w : writers)
    if (w != nullptr) w->write_events(os, first);
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"1 ts = 1 simulated cycle\"}}\n";
}

}  // namespace tlrob::obs

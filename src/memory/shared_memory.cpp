#include "memory/shared_memory.hpp"

#include <algorithm>
#include <sstream>

#include "obs/chrome_trace.hpp"

namespace tlrob {
namespace {

u32 log2_pow2(u64 v) {
  u32 s = 0;
  while ((v >> s) > 1) ++s;
  return s;
}

}  // namespace

SharedMemory::SharedMemory(const LlcConfig& llc, const DramConfig& dram) : cfg_(llc) {
  line_shift_ = log2_pow2(llc.geo.line_bytes);
  llc_ = std::make_unique<Cache>("llc", llc.geo);
  dram_ = std::make_unique<DramModel>(dram, llc.geo.line_bytes);
}

Cycle SharedMemory::admit(Cycle when) {
  auto drop_through = [&](Cycle t) {
    for (size_t i = 0; i < inflight_.size();) {
      if (inflight_[i].done <= t) {
        inflight_[i] = inflight_.back();
        inflight_.pop_back();
      } else {
        ++i;
      }
    }
  };
  drop_through(when);
  if (inflight_.size() < cfg_.mshr_entries) return when;
  ++stats_.mshr_full_stalls;
  Cycle earliest = inflight_.front().done;
  for (const InflightFill& f : inflight_) earliest = std::min(earliest, f.done);
  drop_through(earliest);
  return earliest;
}

SharedMemory::Fill SharedMemory::request_fill(Addr addr, Cycle when, u32 core) {
  const Cycle tag_done = when + cfg_.hit_latency;
  const Cache::Probe p = llc_->probe(addr, tag_done);
  if (p.present) {
    if (p.ready_at > tag_done) {
      // Merged into an in-flight fill; attribute merges initiated by another
      // core. Lines can transiently appear twice in the pool (fill-bypass
      // re-requests), but the newest entry is the one the merge rides.
      const u64 line = addr >> line_shift_;
      for (auto it = inflight_.rbegin(); it != inflight_.rend(); ++it) {
        if (it->line == line) {
          if (it->core != core) {
            ++stats_.cross_core_merges;
            if (trace_ != nullptr)
              trace_->instant_event(llc_tid_, "cross_core_merge", tag_done,
                                    {{"core", core}, {"owner", it->core}});
          }
          break;
        }
      }
    }
    const Cycle ready = std::max(p.ready_at, tag_done);
    return {ready, p.ready_at > tag_done && p.fill_from_memory, ready, ready};
  }
  const Cycle start = admit(tag_done);
  const DramModel::Access a = dram_->read(addr, start);
  bool evicted_dirty = false;
  Addr victim = 0;
  llc_->fill(addr, tag_done, a.done, /*from_memory=*/true, &evicted_dirty, &victim);
  if (evicted_dirty) dram_->write(victim, a.done);
  inflight_.push_back({addr >> line_shift_, core, a.done});
  if (trace_ != nullptr)
    trace_->counter_event(llc_tid_, "llc_mshr_occupancy", start,
                          static_cast<u64>(inflight_.size()));
  return {a.done, true, start, a.row_done};
}

void SharedMemory::request_writeback(Addr addr, Cycle when) {
  ++stats_.writebacks_in;
  if (llc_->mark_dirty(addr)) return;  // resident: absorbed, dirty in the LLC
  ++stats_.writeback_misses;
  dram_->write(addr, when);
}

std::string SharedMemory::audit_check() const {
  if (inflight_.size() > cfg_.mshr_entries) {
    std::ostringstream os;
    os << "llc: MSHR pool overflow (" << inflight_.size() << " > " << cfg_.mshr_entries << ")";
    return os.str();
  }
  return dram_->audit_check();
}

void SharedMemory::attach_chrome_trace(obs::ChromeTraceWriter* w) {
  trace_ = w;
  llc_tid_ = static_cast<ThreadId>(dram_->config().channels * dram_->config().banks_per_channel);
  dram_->attach_chrome_trace(w);
  if (trace_ != nullptr) trace_->set_thread_name(llc_tid_, "llc mshr pool");
}

void SharedMemory::reset_stats() {
  llc_->reset_stats();
  dram_->reset_stats();
  stats_ = {};
}

void SharedMemory::corrupt_inflight_for_test() {
  while (inflight_.size() <= cfg_.mshr_entries)
    inflight_.push_back({~0ull, 0, ~Cycle{0}});
}

}  // namespace tlrob

#include "memory/memory_channel.hpp"

#include <algorithm>

namespace tlrob {

MemoryChannel::MemoryChannel(const MemoryChannelConfig& cfg, u32 line_bytes) : cfg_(cfg) {
  const u32 unit = cfg.critical_bytes > 0 ? std::min(cfg.critical_bytes, line_bytes) : line_bytes;
  const u32 chunks = std::max<u32>(1, unit / std::max<u32>(1, cfg.bus_bytes));
  transfer_ = static_cast<Cycle>(chunks) * cfg.interchunk;
  u32 cap = 8;
  while (cap < 2 * cfg.mshr_entries) cap <<= 1;
  fifo_.assign(cap, 0);
}

void MemoryChannel::push_done(Cycle done) {
  if (count_ == fifo_.size()) {  // transient overshoot past the MSHR pool
    std::vector<Cycle> bigger(fifo_.size() * 2);
    for (u32 i = 0; i < count_; ++i)
      bigger[i] = fifo_[(head_ + i) & (fifo_.size() - 1)];
    fifo_ = std::move(bigger);
    head_ = 0;
  }
  fifo_[(head_ + count_) & (fifo_.size() - 1)] = done;
  ++count_;
}

Cycle MemoryChannel::admit(Cycle when) {
  const u32 mask = static_cast<u32>(fifo_.size() - 1);
  while (count_ > 0 && fifo_[head_] <= when) {
    head_ = (head_ + 1) & mask;
    --count_;
  }
  if (count_ < cfg_.mshr_entries) return when;
  ++stats_.mshr_full_stalls;
  return fifo_[head_];
}

Cycle MemoryChannel::request_fill(Cycle when) {
  const Cycle start = admit(when);
  // DRAM access proceeds in parallel across banks; the bus serialises the
  // line transfers.
  const Cycle transfer_start = std::max(start + cfg_.first_chunk, bus_free_);
  const Cycle done = transfer_start + transfer_;
  bus_free_ = done;
  push_done(done);
  ++stats_.fills;
  return done;
}

void MemoryChannel::request_writeback(Cycle when) {
  bus_free_ = std::max(bus_free_, when) + transfer_;
  ++stats_.writebacks;
}

void MemoryChannel::reset() {
  bus_free_ = 0;
  head_ = 0;
  count_ = 0;
}

}  // namespace tlrob

#include "memory/memory_system.hpp"

#include <algorithm>

#include "memory/shared_memory.hpp"

namespace tlrob {

MemorySystem::MemorySystem(const MemoryConfig& cfg, SharedMemory* backend, u32 core_id)
    : cfg_(cfg), backend_(backend), core_id_(core_id) {
  l1i_ = std::make_unique<Cache>("l1i", cfg.l1i);
  l1d_ = std::make_unique<Cache>("l1d", cfg.l1d);
  l2_ = std::make_unique<Cache>("l2", cfg.l2);
  channel_ = std::make_unique<MemoryChannel>(cfg.channel, cfg.l2.line_bytes);
}

MemorySystem::L2Result MemorySystem::access_l2(Addr addr, Cycle when) {
  const Cycle tag_done = when + cfg_.l2.hit_latency;
  const Cache::Probe p = l2_->probe(addr, tag_done);
  if (p.present) {
    // Resident (ready_at <= tag_done) or merged into an in-flight fill.
    const Cycle ready = std::max(p.ready_at, tag_done);
    return {ready, p.ready_at > tag_done && p.fill_from_memory, ready, ready, ready};
  }
  if (backend_ != nullptr) {
    // CMP path: the miss goes to the shared LLC; only a DRAM-bound fill
    // counts as "went to memory" (an LLC hit does not arm the second-level
    // ROB — its latency is covered by the first-level window).
    const SharedMemory::Fill f = backend_->request_fill(addr, tag_done, core_id_);
    bool evicted_dirty = false;
    Addr victim = 0;
    l2_->fill(addr, tag_done, f.ready, f.llc_miss, &evicted_dirty, &victim);
    if (evicted_dirty) backend_->request_writeback(victim, f.ready);
    // Private time ends at the L2 tag check; the backend supplies the
    // LLC/DRAM edges (clamped into order for the merged/hit paths, whose
    // edges collapse onto ready).
    const Cycle seg_llc = std::max(tag_done, std::min(f.seg_llc_end, f.ready));
    const Cycle seg_dram = std::max(seg_llc, std::min(f.seg_dram_end, f.ready));
    return {f.ready, f.llc_miss, tag_done, seg_llc, seg_dram};
  }
  const Cycle fill_done = channel_->request_fill(tag_done);
  bool evicted_dirty = false;
  l2_->fill(addr, tag_done, fill_done, /*from_memory=*/true, &evicted_dirty);
  if (evicted_dirty) channel_->request_writeback(fill_done);
  // Legacy fixed-latency channel: no shared backend to attribute, the whole
  // chain is private-hierarchy time.
  return {fill_done, true, fill_done, fill_done, fill_done};
}

DataAccess MemorySystem::access_data(Addr addr, bool is_store, Cycle now) {
  DataAccess out;
  const Cycle l1_done = now + cfg_.l1d.hit_latency;
  const Cache::Probe p = l1d_->probe(addr, l1_done);

  if (p.present && p.ready_at <= l1_done) {
    out.l1_hit = true;
    out.data_ready = l1_done;
    out.seg_private = out.seg_llc = out.seg_dram = l1_done;
  } else if (p.present) {
    // Merge into the in-flight L1 fill. The merged chain's shared-backend
    // split is not tracked per line, so the wait is attributed to the
    // private hierarchy (the L1 MSHR it rides).
    out.data_ready = p.ready_at;
    out.l2_miss = p.fill_from_memory;
    out.l2_miss_detect = now + cfg_.l1d.hit_latency + cfg_.l2.hit_latency;
    out.seg_private = out.seg_llc = out.seg_dram = p.ready_at;
  } else {
    const L2Result l2r = access_l2(addr, l1_done);
    out.data_ready = l2r.ready;
    out.l2_miss = l2r.from_memory;
    out.l2_miss_detect = now + cfg_.l1d.hit_latency + cfg_.l2.hit_latency;
    out.seg_private = l2r.seg_private;
    out.seg_llc = l2r.seg_llc;
    out.seg_dram = l2r.seg_dram;
    bool evicted_dirty = false;
    l1d_->fill(addr, l1_done, l2r.ready, l2r.from_memory, &evicted_dirty);
    if (evicted_dirty) {
      // L1 dirty evictions are absorbed by the L2 (write-back); mark the
      // victim's data dirty there if resident. Addresses of victims are not
      // tracked in the latency-chain model, so this is bandwidth-free — L2
      // dirtiness dominates writeback traffic and is modelled precisely.
    }
  }

  if (is_store) {
    l1d_->mark_dirty(addr);
    l2_->mark_dirty(addr);
  }
  return out;
}

void MemorySystem::prewarm_region(Addr base, u64 bytes, u64 hot_prefix_bytes) {
  const u64 l2_line = cfg_.l2.line_bytes;
  const u64 hot = std::min(hot_prefix_bytes, bytes);
  auto warm_l2 = [&](Addr lo, u64 len) {
    // Touching more than the cache only churns it; warm the tail.
    const u64 span = std::min<u64>(len, 2 * cfg_.l2.size_bytes);
    for (Addr a = lo + len - span; a < lo + len; a += l2_line)
      l2_->fill(a, 0, 0, /*from_memory=*/false, nullptr);
  };
  if (bytes > hot) warm_l2(base + hot, bytes - hot);  // cold body first
  if (hot > 0) warm_l2(base, hot);                    // reused prefix last

  // The L1 keeps the most recently warmed lines of the reused part.
  const u64 l1_seed = hot > 0 ? hot : bytes;
  const u64 l1_span = std::min<u64>(l1_seed, cfg_.l1d.size_bytes);
  for (Addr a = base + l1_seed - l1_span; a < base + l1_seed; a += cfg_.l1d.line_bytes)
    l1d_->fill(a, 0, 0, /*from_memory=*/false, nullptr);
}

Cycle MemorySystem::access_inst(Addr pc, Cycle now) {
  const Cache::Probe p = l1i_->probe(pc, now);
  if (p.present && p.ready_at <= now) return now;
  if (p.present) return p.ready_at;
  const L2Result l2r = access_l2(pc, now);
  l1i_->fill(pc, now, l2r.ready, l2r.from_memory, nullptr);
  return l2r.ready;
}

}  // namespace tlrob

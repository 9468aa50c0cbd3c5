// Unit tests for the memory hierarchy: set-associative cache with the
// latency-chain (ready-at) model, the memory channel, and the full system.
#include <gtest/gtest.h>

#include "memory/cache.hpp"
#include "memory/memory_channel.hpp"
#include "memory/memory_system.hpp"
#include "memory/shared_memory.hpp"

namespace tlrob {
namespace {

TEST(Cache, GeometryValidation) {
  EXPECT_THROW(Cache("bad", CacheGeometry{1024, 3, 32, 1}), std::invalid_argument);
  EXPECT_THROW(Cache("bad", CacheGeometry{1024, 4, 48, 1}), std::invalid_argument);
  // Zero capacity divides by any way count but leaves no set (llc=0, l1d_kb=0).
  EXPECT_THROW(Cache("empty", CacheGeometry{0, 4, 32, 1}), std::invalid_argument);
  Cache ok("ok", CacheGeometry{32 << 10, 4, 32, 1});
  EXPECT_EQ(ok.sets(), 256u);
}

TEST(Cache, MissThenResidentHit) {
  Cache c("c", CacheGeometry{1 << 10, 2, 32, 1});
  EXPECT_FALSE(c.probe(0x100, 0).present);
  c.fill(0x100, 0, /*ready_at=*/10, true, nullptr);
  const auto p = c.probe(0x100, 20);
  EXPECT_TRUE(p.present);
  EXPECT_EQ(p.ready_at, 10u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, PendingLineMergesAndReportsOrigin) {
  Cache c("c", CacheGeometry{1 << 10, 2, 32, 1});
  c.fill(0x100, 0, /*ready_at=*/500, /*from_memory=*/true, nullptr);
  const auto p = c.probe(0x100, 50);  // fill still in flight
  EXPECT_TRUE(p.present);
  EXPECT_TRUE(p.fill_from_memory);
  EXPECT_EQ(p.ready_at, 500u);
  EXPECT_EQ(c.stats().mshr_merges, 1u);
}

TEST(Cache, LruVictimSelection) {
  // 2-way, line 32B, 2 sets. Addresses in set 0: multiples of 64.
  Cache c("c", CacheGeometry{128, 2, 32, 1});
  c.fill(0, 0, 0, false, nullptr);
  c.fill(64, 0, 0, false, nullptr);
  c.probe(0, 1);  // touch 0 -> 64 becomes LRU
  c.fill(128, 2, 2, false, nullptr);
  EXPECT_TRUE(c.probe(0, 3).present);
  EXPECT_FALSE(c.probe(64, 3).present);
  EXPECT_TRUE(c.probe(128, 3).present);
}

TEST(Cache, InFlightLinesAreNotVictimised) {
  Cache c("c", CacheGeometry{128, 2, 32, 1});
  c.fill(0, 0, /*ready_at=*/1000, true, nullptr);   // pending
  c.fill(64, 0, /*ready_at=*/1000, true, nullptr);  // pending
  // Both ways of set 0 are in flight: a third fill must bypass.
  EXPECT_FALSE(c.fill(128, 1, 1, false, nullptr));
  EXPECT_EQ(c.stats().fill_bypass, 1u);
}

TEST(Cache, DirtyEvictionReported) {
  Cache c("c", CacheGeometry{128, 2, 32, 1});
  c.fill(0, 0, 0, false, nullptr);
  c.mark_dirty(0);
  c.fill(64, 0, 0, false, nullptr);
  bool dirty = false;
  c.fill(128, 1, 1, false, &dirty);  // evicts LRU = line 0 (dirty)
  EXPECT_TRUE(dirty);
}

TEST(Channel, FirstChunkPlusTransfer) {
  MemoryChannelConfig cfg;
  cfg.first_chunk = 500;
  cfg.interchunk = 2;
  cfg.bus_bytes = 8;
  cfg.critical_bytes = 32;  // 4 chunks * 2 cycles
  MemoryChannel ch(cfg, 128);
  EXPECT_EQ(ch.transfer_cycles(), 8u);
  EXPECT_EQ(ch.request_fill(0), 508u);
}

TEST(Channel, FullLineTransferWhenCriticalDisabled) {
  MemoryChannelConfig cfg;
  cfg.critical_bytes = 0;  // pessimistic: whole 128B line occupies the bus
  MemoryChannel ch(cfg, 128);
  EXPECT_EQ(ch.transfer_cycles(), 32u);
  EXPECT_EQ(ch.request_fill(0), 532u);
}

TEST(Channel, BusSerialisesOverlappingFills) {
  MemoryChannelConfig cfg;
  MemoryChannel ch(cfg, 128);
  const Cycle t = cfg.first_chunk;
  const Cycle f1 = ch.request_fill(0);
  const Cycle f2 = ch.request_fill(0);
  const Cycle f3 = ch.request_fill(0);
  EXPECT_EQ(f1, t + ch.transfer_cycles());
  EXPECT_EQ(f2, f1 + ch.transfer_cycles());  // access overlapped, bus serial
  EXPECT_EQ(f3, f2 + ch.transfer_cycles());
}

TEST(Channel, MshrLimitDelaysAdmission) {
  MemoryChannelConfig cfg;
  cfg.mshr_entries = 2;
  MemoryChannel ch(cfg, 128);
  const Cycle f1 = ch.request_fill(0);
  ch.request_fill(0);
  // Third request at time 0 cannot be admitted before the first completes.
  const Cycle f3 = ch.request_fill(0);
  EXPECT_GE(f3, f1 + cfg.first_chunk);
  EXPECT_EQ(ch.stats().mshr_full_stalls, 1u);
}

TEST(Channel, WritebackConsumesBandwidthOnly) {
  MemoryChannelConfig cfg;
  MemoryChannel ch(cfg, 128);
  // A writeback finishing just as the fill's DRAM access completes delays
  // the fill's bus transfer by its own occupancy.
  ch.request_writeback(cfg.first_chunk);
  const Cycle f = ch.request_fill(0);
  EXPECT_EQ(f, cfg.first_chunk + 2 * ch.transfer_cycles());
}

TEST(MemorySystem, L1HitTiming) {
  MemorySystem ms((MemoryConfig()));
  ms.access_data(0x1000, false, 0);          // cold; installs the line
  const Cycle ready = ms.access_data(0x1000, false, 10000).data_ready;
  EXPECT_EQ(ready, 10000u + 1u);  // L1 hit latency
}

TEST(MemorySystem, L2MissGoesToMemoryAndReportsDetectTime) {
  MemoryConfig cfg;
  MemorySystem ms(cfg);
  const DataAccess a = ms.access_data(0x100000, false, 0);
  EXPECT_FALSE(a.l1_hit);
  EXPECT_TRUE(a.l2_miss);
  EXPECT_EQ(a.l2_miss_detect, 0u + cfg.l1d.hit_latency + cfg.l2.hit_latency);
  EXPECT_GT(a.data_ready, cfg.channel.first_chunk);
}

TEST(MemorySystem, L2HitAfterL1Eviction) {
  MemoryConfig cfg;
  MemorySystem ms(cfg);
  ms.access_data(0x100000, false, 0);
  // Evict from L1 (4-way, 32B lines, 256 sets => same set every 8KB).
  for (int w = 1; w <= 4; ++w)
    ms.access_data(0x100000 + w * 8192, false, 2000 + w);
  const DataAccess a = ms.access_data(0x100000, false, 10000);
  EXPECT_FALSE(a.l1_hit);
  EXPECT_FALSE(a.l2_miss);  // still resident in L2
  EXPECT_EQ(a.data_ready, 10000u + cfg.l1d.hit_latency + cfg.l2.hit_latency);
}

TEST(MemorySystem, SecondaryMissMergesIntoPendingFill) {
  MemorySystem ms((MemoryConfig()));
  const DataAccess first = ms.access_data(0x200000, false, 0);
  const DataAccess second = ms.access_data(0x200000, false, 5);
  EXPECT_TRUE(second.l2_miss);  // merged into a memory-bound fill
  EXPECT_EQ(second.data_ready, first.data_ready);
}

TEST(MemorySystem, InstSideHitAndMiss) {
  MemoryConfig cfg;
  MemorySystem ms(cfg);
  const Cycle miss = ms.access_inst(0x400000, 0);
  EXPECT_GT(miss, cfg.channel.first_chunk);
  EXPECT_EQ(ms.access_inst(0x400000, miss + 1), miss + 1);  // now resident
}

TEST(MemorySystem, PrewarmMakesRegionResident) {
  MemorySystem ms((MemoryConfig()));
  ms.prewarm_region(0x100000, 64 << 10);
  const DataAccess a = ms.access_data(0x100000 + 4096, false, 0);
  EXPECT_FALSE(a.l2_miss);
}

TEST(MemorySystem, PrewarmHotPrefixSurvivesColdBody) {
  MemoryConfig cfg;
  MemorySystem ms(cfg);
  // Region far larger than the L2, with a 256KB reused prefix.
  ms.prewarm_region(0x1000000, 8 << 20, 256 << 10);
  const DataAccess hot = ms.access_data(0x1000000 + 1024, false, 0);
  EXPECT_FALSE(hot.l2_miss) << "hot prefix must be resident after prewarm";
}

TEST(MemorySystem, StoresDirtyTheLine) {
  MemoryConfig cfg;
  MemorySystem ms(cfg);
  ms.access_data(0x300000, true, 0);  // write-allocate + dirty
  const u64 wb_before = ms.channel().stats().writebacks;
  // Evict the dirty L2 line: same L2 set every 2048*128 bytes, 8 ways.
  for (int w = 1; w <= 8; ++w)
    ms.access_data(0x300000 + static_cast<Addr>(w) * 2048 * 128, false, 1000 + w * 600);
  EXPECT_GT(ms.channel().stats().writebacks, wb_before);
}

// --- Replacement / MSHR pinning tests ---------------------------------------
//
// These pin the exact replacement and merge semantics the rest of the model
// depends on, so a storage-layout rework of the cache is checked directly
// rather than only through the golden fingerprints.

TEST(Cache, InvalidWayPreferredOverEviction) {
  // 2-way, 2 sets. One way of set 0 holds a line; a second fill to the same
  // set must take the empty way, not evict.
  Cache c("c", CacheGeometry{128, 2, 32, 1});
  c.fill(0, 0, 0, false, nullptr);
  c.fill(64, 1, 1, false, nullptr);
  EXPECT_EQ(c.stats().evictions, 0u);
  EXPECT_TRUE(c.probe(0, 2).present);
  EXPECT_TRUE(c.probe(64, 2).present);
}

TEST(Cache, LruVictimAfterMixedTouchOrder) {
  // 4-way, 1 set (128B / 4 ways / 32B lines). Fill A..D, then touch in the
  // order C, A, D — B is least recent and must be the victim.
  Cache c("c", CacheGeometry{128, 4, 32, 1});
  const Addr A = 0 * 32, B = 1 * 32, C = 2 * 32, D = 3 * 32, E = 4 * 32;
  for (Addr a : {A, B, C, D}) c.fill(a, 0, 0, false, nullptr);
  c.probe(C, 1);
  c.probe(A, 2);
  c.probe(D, 3);
  c.fill(E, 4, 4, false, nullptr);
  EXPECT_FALSE(c.probe(B, 5).present) << "B was least-recently used";
  for (Addr a : {A, C, D, E}) EXPECT_TRUE(c.probe(a, 5).present);
}

TEST(Cache, ProbeOfInFlightLineRefreshesLru) {
  // A merged (in-flight) probe must refresh recency exactly like a hit.
  Cache c("c", CacheGeometry{128, 2, 32, 1});
  c.fill(0, 0, /*ready_at=*/1000, true, nullptr);  // in flight
  c.fill(64, 1, 1, false, nullptr);                // resident
  c.probe(0, 2);  // merge: touches line 0 -> line 64 becomes LRU
  // At now=2000 both lines are victimisable; LRU must pick line 64.
  c.fill(128, 2000, 2000, false, nullptr);
  EXPECT_TRUE(c.probe(0, 2001).present);
  EXPECT_FALSE(c.probe(64, 2001).present);
}

TEST(Cache, InFlightLineVictimisableOnceReady) {
  Cache c("c", CacheGeometry{128, 2, 32, 1});
  c.fill(0, 0, /*ready_at=*/1000, true, nullptr);
  c.fill(64, 0, /*ready_at=*/1000, true, nullptr);
  // Before the fills land every way is locked; after, normal LRU applies.
  EXPECT_FALSE(c.fill(128, 999, 999, false, nullptr));
  EXPECT_TRUE(c.fill(128, 1000, 1500, false, nullptr));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, RefillKeepsLaterReadyAt) {
  // MSHR merge on the fill side: re-filling a present line must never pull
  // its ready time earlier (max semantics), but a later fill extends it.
  Cache c("c", CacheGeometry{128, 2, 32, 1});
  c.fill(0, 0, /*ready_at=*/800, true, nullptr);
  c.fill(0, 1, /*ready_at=*/200, false, nullptr);  // earlier: ignored
  EXPECT_EQ(c.probe(0, 900).ready_at, 800u);
  c.fill(0, 2, /*ready_at=*/950, true, nullptr);  // later: extends
  EXPECT_EQ(c.probe(0, 1000).ready_at, 950u);
}

TEST(Cache, FillClearsDirtyAndReportsVictim) {
  // Writeback ordering: the dirty bit travels with the victim exactly once;
  // the newly installed line starts clean.
  Cache c("c", CacheGeometry{128, 2, 32, 1});
  c.fill(0, 0, 0, false, nullptr);
  c.mark_dirty(0);
  c.fill(64, 1, 1, false, nullptr);
  bool dirty = false;
  c.fill(128, 2, 2, false, &dirty);  // evicts line 0 (dirty)
  EXPECT_TRUE(dirty);
  c.fill(192, 3, 3, false, &dirty);  // evicts line 64 (clean)
  EXPECT_FALSE(dirty);
  // Line 128 replaced the dirty line but must itself be clean.
  c.probe(128, 4);
  c.fill(256, 5, 5, false, &dirty);  // evicts line 192, then 128 next
  c.fill(320, 6, 6, false, &dirty);
  EXPECT_FALSE(dirty) << "installed lines start clean";
}

TEST(Cache, MergeCountsNeitherMissNorEviction) {
  Cache c("c", CacheGeometry{128, 2, 32, 1});
  c.fill(0x100, 0, /*ready_at=*/500, true, nullptr);
  c.probe(0x100, 10);  // merge
  c.probe(0x100, 20);  // merge
  EXPECT_EQ(c.stats().mshr_merges, 2u);
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(Channel, CompletionsAreMonotonic) {
  // The bus serialises transfers, so fill completions form a non-decreasing
  // sequence even when request times interleave oddly. (The MSHR bookkeeping
  // relies on this: the earliest outstanding completion is the oldest one.)
  MemoryChannelConfig cfg;
  cfg.mshr_entries = 4;
  MemoryChannel ch(cfg, 128);
  Cycle prev = 0;
  const Cycle whens[] = {0, 0, 700, 100, 1500, 1500, 1500, 1500, 1490, 5000};
  for (const Cycle w : whens) {
    const Cycle done = ch.request_fill(w);
    EXPECT_GE(done, prev);
    EXPECT_GT(done, w);
    prev = done;
  }
}

TEST(Channel, MshrDrainAdmitsInCompletionOrder) {
  // With a single MSHR, each request is admitted exactly when the previous
  // fill completes — the stall chain is deterministic.
  MemoryChannelConfig cfg;
  cfg.mshr_entries = 1;
  MemoryChannel ch(cfg, 128);
  const Cycle f1 = ch.request_fill(0);
  const Cycle f2 = ch.request_fill(0);  // admitted at f1's completion
  const Cycle f3 = ch.request_fill(0);  // also admitted at f1; bus-bound
  EXPECT_EQ(f2, f1 + cfg.first_chunk + ch.transfer_cycles());
  EXPECT_EQ(f3, f2 + ch.transfer_cycles());
  EXPECT_EQ(ch.stats().mshr_full_stalls, 2u);
  // A request after everything drained is admitted immediately again.
  const Cycle f4 = ch.request_fill(f3 + 10);
  EXPECT_EQ(f4, f3 + 10 + cfg.first_chunk + ch.transfer_cycles());
  EXPECT_EQ(ch.stats().mshr_full_stalls, 2u);
}

TEST(MemorySystem, DirtyL2EvictionQueuesWritebackBeforeNextFill) {
  // Writeback ordering through the full system: the victim's writeback is
  // queued at the evicting fill's completion and occupies the bus, delaying
  // a later fill by one transfer.
  MemoryConfig cfg;
  MemorySystem ms(cfg);
  ms.access_data(0x300000, true, 0);  // dirty in L1+L2
  const u64 wb_before = ms.channel().stats().writebacks;
  // Fill seven more ways of the dirty line's L2 set (8-way; same set every
  // 2048*128 bytes), spaced so every fill has landed before the next access.
  const Addr stride = 2048 * 128;
  Cycle t = 10000;
  for (int w = 1; w <= 7; ++w, t += 10000)
    ms.access_data(0x300000 + static_cast<Addr>(w) * stride, false, t);
  // The eighth conflicting access evicts the dirty victim and queues its
  // writeback at the evicting fill's done-time; a fill requested the same
  // cycle must wait out that extra bus occupancy.
  const Cycle tr = ms.channel().transfer_cycles();
  ms.access_data(0x300000 + 8 * stride, false, t);  // evicts, queues writeback
  EXPECT_EQ(ms.channel().stats().writebacks, wb_before + 1);
  const DataAccess next = ms.access_data(0x900000, false, t);
  EXPECT_TRUE(next.l2_miss);
  const Cycle tag_done = t + cfg.l1d.hit_latency + cfg.l2.hit_latency;
  // evicting fill: tag_done + first_chunk + tr; writeback: + tr; next: + tr.
  EXPECT_EQ(next.data_ready, tag_done + cfg.channel.first_chunk + 3 * tr);
}

// -- shared CMP backend: LLC contention --------------------------------------
//
// Cross-core effects the per-core hierarchy cannot express: set thrashing
// between cores, MSHR merges attributed across cores, and the
// inclusive-victim writeback path (L2 dirty victims absorbed by a resident
// LLC line vs forwarded to DRAM).

/// Tiny 2-way LLC (32 sets, 64B lines, 10-cycle tags) over the default DRAM
/// so two cores can thrash one set with four lines.
LlcConfig tiny_llc() {
  LlcConfig llc;
  llc.enabled = true;
  llc.geo = CacheGeometry{4096, 2, 64, 10};
  llc.mshr_entries = 4;
  return llc;
}

/// Same-set stride: 32 sets x 64B lines.
constexpr Addr kLlcSetStride = 2048;

TEST(SharedLlc, CrossCoreSetThrashingEvictsAndRemisses) {
  SharedMemory sm(tiny_llc(), DramConfig{});
  // Core 0 owns lines A,B of set 0; core 1 pushes C,D through the same set.
  // Accesses are spaced so every fill has landed (no in-flight lock).
  const Addr a = 0, b = kLlcSetStride, c = 2 * kLlcSetStride, d = 3 * kLlcSetStride;
  EXPECT_TRUE(sm.request_fill(a, 0, 0).llc_miss);
  EXPECT_TRUE(sm.request_fill(b, 1000, 0).llc_miss);
  EXPECT_TRUE(sm.request_fill(c, 2000, 1).llc_miss);  // evicts A (LRU)
  EXPECT_TRUE(sm.request_fill(d, 3000, 1).llc_miss);  // evicts B
  // Core 0 lost its working set to core 1: A misses again.
  EXPECT_TRUE(sm.request_fill(a, 4000, 0).llc_miss);
  EXPECT_EQ(sm.llc().stats().misses, 5u);
  EXPECT_EQ(sm.llc().stats().evictions, 3u);
  EXPECT_EQ(sm.audit_check(), "");
}

TEST(SharedLlc, CrossCoreMshrMergeAttributedOnce) {
  SharedMemory sm(tiny_llc(), DramConfig{});
  const SharedMemory::Fill first = sm.request_fill(0x40, 0, /*core=*/0);
  EXPECT_TRUE(first.llc_miss);
  EXPECT_EQ(sm.inflight_count(), 1u);
  // Core 1 hits the in-flight fill: merged, still DRAM-bound, and the
  // cross-core attribution fires.
  const SharedMemory::Fill merged = sm.request_fill(0x40, 5, /*core=*/1);
  EXPECT_TRUE(merged.llc_miss);
  EXPECT_EQ(merged.ready, first.ready);
  EXPECT_EQ(sm.stats().cross_core_merges, 1u);
  // A same-core merge rides the fill too but is not a cross-core event.
  sm.request_fill(0x40, 6, /*core=*/0);
  EXPECT_EQ(sm.stats().cross_core_merges, 1u);
  EXPECT_EQ(sm.llc().stats().mshr_merges, 2u);
  // After the fill lands the line is a plain LLC hit for every core.
  const SharedMemory::Fill hit = sm.request_fill(0x40, first.ready + 100, /*core=*/1);
  EXPECT_FALSE(hit.llc_miss);
}

TEST(SharedLlc, InclusiveVictimWritebackAbsorbedThenSpilled) {
  SharedMemory sm(tiny_llc(), DramConfig{});
  const Addr a = 0;
  sm.request_fill(a, 0, 0);
  // Resident line: the L2's dirty victim is absorbed (marked dirty in the
  // LLC), no DRAM traffic.
  sm.request_writeback(a, 1000);
  EXPECT_EQ(sm.stats().writebacks_in, 1u);
  EXPECT_EQ(sm.stats().writeback_misses, 0u);
  EXPECT_EQ(sm.dram().stats().writebacks, 0u);
  // Thrash the set from the other core until the dirty line is the LRU
  // victim: its eviction must spill to DRAM.
  sm.request_fill(kLlcSetStride, 2000, 1);
  sm.request_fill(2 * kLlcSetStride, 3000, 1);  // evicts dirty A
  EXPECT_EQ(sm.dram().stats().writebacks, 1u);
  // A writeback for a line the LLC no longer holds goes straight to DRAM.
  sm.request_writeback(a, 4000);
  EXPECT_EQ(sm.stats().writeback_misses, 1u);
  EXPECT_EQ(sm.dram().stats().writebacks, 2u);
  EXPECT_EQ(sm.audit_check(), "");
}

TEST(SharedLlc, MshrPoolBoundDelaysAdmission) {
  LlcConfig llc = tiny_llc();
  llc.mshr_entries = 1;
  SharedMemory sm(llc, DramConfig{});
  const SharedMemory::Fill first = sm.request_fill(0, 0, 0);
  // Second miss the same cycle: the single MSHR is held until the first
  // fill completes, so the DRAM access starts late.
  const SharedMemory::Fill second = sm.request_fill(kLlcSetStride, 0, 1);
  EXPECT_EQ(sm.stats().mshr_full_stalls, 1u);
  EXPECT_GT(second.ready, first.ready);
  EXPECT_GE(second.ready, first.ready + sm.dram().config().tcas);
}

TEST(SharedLlc, AuditTripsOnCorruptedMshrPool) {
  SharedMemory sm(tiny_llc(), DramConfig{});
  EXPECT_EQ(sm.audit_check(), "");
  sm.corrupt_inflight_for_test();
  EXPECT_NE(sm.audit_check(), "");
}

}  // namespace
}  // namespace tlrob

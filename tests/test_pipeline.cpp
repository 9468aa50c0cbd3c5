// Unit tests for the pipeline components: rename/scoreboard, issue queue,
// load/store queue, functional units, fetch policies and DCRA's register
// guard.
#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <sstream>

#include "pipeline/dyn_inst.hpp"
#include "pipeline/fetch_policy.hpp"
#include "pipeline/func_units.hpp"
#include "pipeline/issue_queue.hpp"
#include "pipeline/lsq.hpp"
#include "pipeline/rename.hpp"

namespace tlrob {
namespace {

StaticInst alu(ArchReg d, ArchReg a = kNoReg, ArchReg b = kNoReg) {
  StaticInst si;
  si.op = OpClass::kIntAlu;
  si.dest = d;
  si.src[0] = a;
  si.src[1] = b;
  return si;
}

DynInst dyn(const StaticInst* si, ThreadId tid, u64 tseq) {
  DynInst di;
  di.si = si;
  di.op = si != nullptr ? si->op : OpClass::kNop;
  di.tid = tid;
  di.tseq = tseq;
  di.seq = tseq;
  return di;
}

TEST(Rename, RawDependenceThroughRat) {
  RenameUnit ru(RenameConfig{224, 224, 1, false});
  static const StaticInst producer = alu(ireg(1));
  static const StaticInst consumer = alu(ireg(2), ireg(1));
  DynInst p = dyn(&producer, 0, 1);
  DynInst c = dyn(&consumer, 0, 2);
  ru.rename(p);
  ru.rename(c);
  EXPECT_EQ(c.src_phys[0], p.dest_phys);
  EXPECT_FALSE(ru.is_ready(c.src_phys[0], 100));
  ru.set_ready(p.dest_phys);
  EXPECT_TRUE(ru.is_ready(c.src_phys[0], 100));
}

TEST(Rename, CommitFreesPreviousMapping) {
  RenameUnit ru(RenameConfig{224, 224, 1, false});
  static const StaticInst w1 = alu(ireg(1));
  static const StaticInst w2 = alu(ireg(1));
  DynInst a = dyn(&w1, 0, 1), b = dyn(&w2, 0, 2);
  ru.rename(a);
  const u32 free_after_a = ru.free_int(0);
  ru.rename(b);
  EXPECT_EQ(b.prev_dest_phys, a.dest_phys);
  ru.commit_free(b);  // releases a's register
  EXPECT_EQ(ru.free_int(0), free_after_a);
}

TEST(Rename, SquashUndoRestoresRatAndFreesReg) {
  RenameUnit ru(RenameConfig{224, 224, 1, false});
  static const StaticInst w1 = alu(ireg(1));
  static const StaticInst w2 = alu(ireg(1));
  DynInst a = dyn(&w1, 0, 1), b = dyn(&w2, 0, 2);
  ru.rename(a);
  const PhysReg a_phys = a.dest_phys;
  ru.rename(b);
  ru.squash_undo(b);
  EXPECT_EQ(ru.rat_entry(0, ireg(1)), a_phys);
  static const StaticInst r = alu(ireg(5), ireg(1));
  DynInst c = dyn(&r, 0, 3);
  ru.rename(c);
  EXPECT_EQ(c.src_phys[0], a_phys);
}

TEST(Rename, PerThreadFilesAreIndependent) {
  RenameUnit ru(RenameConfig{224, 224, 2, false});
  static const StaticInst w = alu(ireg(1));
  // Exhaust thread 0's int free list; thread 1 must be unaffected.
  const u32 pool = ru.int_rename_pool();
  for (u64 i = 0; i < pool; ++i) {
    DynInst d = dyn(&w, 0, i + 1);
    ASSERT_TRUE(ru.can_rename(0, w));
    ru.rename(d);
  }
  EXPECT_FALSE(ru.can_rename(0, w));
  EXPECT_TRUE(ru.can_rename(1, w));
  EXPECT_EQ(ru.int_in_use(0), pool);
}

TEST(Rename, SharedPoolIsContended) {
  RenameUnit ru(RenameConfig{224, 224, 4, true});
  EXPECT_EQ(ru.int_rename_pool(), 224u - 4 * kNumIntArchRegs);
  static const StaticInst w = alu(ireg(1));
  for (u64 i = 0; i < ru.int_rename_pool(); ++i) {
    DynInst d = dyn(&w, static_cast<ThreadId>(i % 4), i + 1);
    ASSERT_TRUE(ru.can_rename(d.tid, w));
    ru.rename(d);
  }
  // Pool exhausted for every thread.
  for (ThreadId t = 0; t < 4; ++t) EXPECT_FALSE(ru.can_rename(t, w));
}

TEST(Rename, SharedPoolRejectsTooSmallFiles) {
  EXPECT_THROW(RenameUnit(RenameConfig{128, 224, 4, true}), std::invalid_argument);
}

TEST(Rename, SpecReadyLifecycle) {
  RenameUnit ru(RenameConfig{224, 224, 1, false});
  static const StaticInst w = alu(ireg(1));
  DynInst d = dyn(&w, 0, 1);
  ru.rename(d);
  ru.set_spec_ready(d.dest_phys, 10);
  EXPECT_FALSE(ru.is_ready(d.dest_phys, 9));
  EXPECT_TRUE(ru.is_ready(d.dest_phys, 10));
  EXPECT_TRUE(ru.is_spec(d.dest_phys));
  ru.clear_spec(d.dest_phys);
  EXPECT_FALSE(ru.is_ready(d.dest_phys, 100));
  ru.set_ready(d.dest_phys);
  EXPECT_TRUE(ru.is_ready(d.dest_phys, 0));
  EXPECT_FALSE(ru.is_spec(d.dest_phys));
}

TEST(IssueQueue, InsertRemoveAccounting) {
  IssueQueue iq(4, 2);
  static const StaticInst w = alu(ireg(1));
  DynInst a = dyn(&w, 0, 1), b = dyn(&w, 1, 2);
  iq.insert(&a);
  iq.insert(&b);
  EXPECT_EQ(iq.occupancy(), 2u);
  EXPECT_EQ(iq.occupancy(0), 1u);
  EXPECT_EQ(iq.occupancy(1), 1u);
  iq.remove(&a);
  EXPECT_FALSE(a.in_iq);
  EXPECT_EQ(iq.occupancy(0), 0u);
  iq.remove(&a);  // idempotent
  EXPECT_EQ(iq.occupancy(), 1u);
}

TEST(IssueQueue, ThrowsWhenFull) {
  IssueQueue iq(2, 1);
  static const StaticInst w = alu(ireg(1));
  DynInst a = dyn(&w, 0, 1), b = dyn(&w, 0, 2), c = dyn(&w, 0, 3);
  iq.insert(&a);
  iq.insert(&b);
  EXPECT_FALSE(iq.has_free());
  EXPECT_THROW(iq.insert(&c), std::logic_error);
}

TEST(IssueQueue, CollectFilters) {
  IssueQueue iq(8, 1);
  static const StaticInst w = alu(ireg(1));
  DynInst a = dyn(&w, 0, 1), b = dyn(&w, 0, 2);
  b.issued = true;
  iq.insert(&a);
  iq.insert(&b);
  std::vector<DynInst*> unissued;
  iq.collect_into(unissued, [](DynInst& d) { return !d.issued; });
  ASSERT_EQ(unissued.size(), 1u);
  EXPECT_EQ(unissued[0], &a);
}

// Pins collect_into's selection-order contract: ascending slot index, where
// insert() always takes the lowest free slot — NOT age order. The issue
// stage sorts candidates by seq itself; if collect_into ever changed order
// (or insert stopped reusing the lowest slot), replay-heavy workloads would
// issue in a different sequence and every golden fixture would drift.
TEST(IssueQueue, CollectOrderIsSlotOrderNotAge) {
  IssueQueue iq(8, 1);
  static const StaticInst w = alu(ireg(1));
  DynInst a = dyn(&w, 0, 1), b = dyn(&w, 0, 2), c = dyn(&w, 0, 3), d = dyn(&w, 0, 4);
  iq.insert(&a);  // slot 0
  iq.insert(&b);  // slot 1
  iq.insert(&c);  // slot 2
  iq.remove(&b);  // frees slot 1
  iq.insert(&d);  // the *youngest* instruction recycles the lowest free slot
  std::vector<DynInst*> all;
  iq.collect_into(all, [](DynInst&) { return true; });
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], &a);
  EXPECT_EQ(all[1], &d);  // slot order: d (tseq 4) precedes c (tseq 3)
  EXPECT_EQ(all[2], &c);

  // The scratch buffer is cleared on entry and reused; stale contents and
  // prior capacity must not leak into the result.
  iq.collect_into(all, [](DynInst& di) { return di.tseq >= 3; });
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], &d);
  EXPECT_EQ(all[1], &c);
}

// A slot freed while parked (a squash) is unlinked from its register's
// chain at once, so the instruction that reuses the slot parks on its own
// register in the very next scan instead of being rescanned every cycle
// until the old register wakes.
TEST(IssueQueue, SlotFreedWhileParkedParksOnItsNewRegisterNextScan) {
  using S = IssueQueue::SrcState;
  IssueQueue iq(4, 1);
  static const StaticInst w = alu(ireg(1));
  std::vector<DynInst*> out;
  std::vector<PhysReg> visited;
  auto waiting = [&](PhysReg r) {
    visited.push_back(r);
    return S::kWaitEvent;
  };
  DynInst a = dyn(&w, 0, 1);
  a.src_phys[0] = 10;
  iq.insert(&a);
  iq.collect_issue_candidates(out, waiting);
  EXPECT_EQ(visited, std::vector<PhysReg>{10});  // a parks on 10
  iq.remove(&a);
  DynInst b = dyn(&w, 0, 2);
  b.src_phys[0] = 20;
  iq.insert(&b);
  ASSERT_EQ(b.iq_slot, 0);  // a's slot
  visited.clear();
  iq.collect_issue_candidates(out, waiting);
  EXPECT_EQ(visited, std::vector<PhysReg>{20});  // b parks on 20
  visited.clear();
  iq.collect_issue_candidates(out, waiting);
  iq.wake_waiters(10);  // a's register: nothing waits on it any more
  iq.collect_issue_candidates(out, waiting);
  EXPECT_TRUE(visited.empty());
  iq.wake_waiters(20);
  iq.collect_issue_candidates(out, [&](PhysReg r) {
    visited.push_back(r);
    return S::kReady;
  });
  EXPECT_EQ(visited, std::vector<PhysReg>{20});
  EXPECT_EQ(out, std::vector<DynInst*>{&b});
}

// Seeded random traffic: inserts, squashes, issues (plain or speculative,
// with replays), and register transitions the way the core makes them — a
// not-ready register becomes ready or speculatively ready only together
// with wake_waiters, a speculative one matures silently or is cancelled.
// After every step the parked scan must return exactly the candidates of a
// full rescan of the slots.
TEST(IssueQueue, ParkedScanMatchesFullRescanUnderRandomTraffic) {
  using S = IssueQueue::SrcState;
  static const StaticInst w = alu(ireg(1));
  for (u32 seed = 0; seed < 8; ++seed) {
    std::mt19937 rng(seed * 7919u + 1u);
    constexpr u32 kRegs = 12;
    IssueQueue iq(16, 2);
    std::vector<S> reg(kRegs, S::kReady);
    std::deque<DynInst> pool;  // address-stable storage
    std::vector<DynInst*> live;
    std::vector<DynInst*> out;
    u64 tseq = 0;
    auto classify = [&](PhysReg r) { return reg[r]; };
    auto any_reg = [&] {
      return rng() % 4 == 0 ? kInvalidPhysReg : static_cast<PhysReg>(rng() % kRegs);
    };
    for (u32 step = 0; step < 3000; ++step) {
      const u32 op = rng() % 8;
      if (op <= 1 && iq.has_free()) {
        pool.push_back(dyn(&w, rng() % 2, ++tseq));
        DynInst& d = pool.back();
        d.src_phys[0] = any_reg();
        d.src_phys[1] = any_reg();
        iq.insert(&d);
        live.push_back(&d);
      } else if (op == 2 && !live.empty()) {  // squash or completion
        const size_t k = rng() % live.size();
        iq.remove(live[k]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      } else if (op == 3 && !out.empty()) {  // issue one candidate
        DynInst* d = out[rng() % out.size()];
        d->issued = true;
        iq.mark_issued(d);
        if (rng() % 2 == 0) {
          iq.remove(d);
          std::erase(live, d);
        }
      } else if (op == 4 && !live.empty()) {  // replay a speculative issue
        DynInst* d = live[rng() % live.size()];
        if (d->issued) {
          d->issued = false;
          iq.mark_unissued(d);
        }
      } else {  // a register transition
        const PhysReg r = static_cast<PhysReg>(rng() % kRegs);
        const u32 to = rng() % 3;
        if (reg[r] == S::kWaitEvent && to != 2) {
          reg[r] = to == 0 ? S::kReady : S::kWaitTime;  // set_ready / set_spec_ready
          iq.wake_waiters(r);
        } else if (reg[r] == S::kWaitTime) {
          reg[r] = to == 0 ? S::kReady : S::kWaitEvent;  // matures / clear_spec
        } else if (reg[r] == S::kReady && to == 2) {
          reg[r] = S::kWaitEvent;  // reallocated by rename
        }
      }
      iq.collect_issue_candidates(out, classify);
      std::vector<DynInst*> expect;
      for (u32 i = 0; i < iq.capacity(); ++i) {
        DynInst* d = const_cast<DynInst*>(iq.slot(i));
        if (d == nullptr || d->issued) continue;
        bool ready = true;
        for (const PhysReg r : d->src_phys)
          if (r != kInvalidPhysReg && reg[r] != S::kReady) ready = false;
        if (ready) expect.push_back(d);
      }
      ASSERT_EQ(out, expect) << "seed " << seed << " step " << step;
    }
  }
}

StaticInst mem_op(OpClass op) {
  StaticInst si;
  si.op = op;
  si.agen_id = 0;
  if (op == OpClass::kLoad) si.dest = ireg(1);
  return si;
}

TEST(Lsq, ConservativeLoadOrdering) {
  LoadStoreQueue lsq(8);
  static const StaticInst st = mem_op(OpClass::kStore);
  static const StaticInst ld = mem_op(OpClass::kLoad);
  DynInst s = dyn(&st, 0, 1);
  DynInst l = dyn(&ld, 0, 2);
  s.mem_addr = 0x100;
  l.mem_addr = 0x200;
  lsq.push(&s);
  lsq.push(&l);
  EXPECT_FALSE(lsq.older_stores_resolved(l));
  s.addr_resolved = true;
  EXPECT_TRUE(lsq.older_stores_resolved(l));
}

TEST(Lsq, ForwardsFromYoungestOlderOverlappingStore) {
  LoadStoreQueue lsq(8);
  static const StaticInst st = mem_op(OpClass::kStore);
  static const StaticInst ld = mem_op(OpClass::kLoad);
  DynInst s1 = dyn(&st, 0, 1), s2 = dyn(&st, 0, 2), l = dyn(&ld, 0, 3);
  s1.mem_addr = s2.mem_addr = l.mem_addr = 0x100;
  s1.addr_resolved = s2.addr_resolved = true;
  lsq.push(&s1);
  lsq.push(&s2);
  lsq.push(&l);
  EXPECT_EQ(lsq.forwarding_store(l), &s2);
  s2.mem_addr = 0x900;  // no longer overlaps
  EXPECT_EQ(lsq.forwarding_store(l), &s1);
  s1.mem_addr = 0x500;
  EXPECT_EQ(lsq.forwarding_store(l), nullptr);
}

TEST(Lsq, SquashRemovesSuffixOnly) {
  LoadStoreQueue lsq(8);
  static const StaticInst st = mem_op(OpClass::kStore);
  DynInst a = dyn(&st, 0, 1), b = dyn(&st, 0, 5), c = dyn(&st, 0, 9);
  lsq.push(&a);
  lsq.push(&b);
  lsq.push(&c);
  lsq.squash_after(5);
  EXPECT_EQ(lsq.occupancy(), 2u);
  EXPECT_FALSE(c.lsq_allocated);
  EXPECT_TRUE(b.lsq_allocated);
}

TEST(Lsq, PopEnforcesOrder) {
  LoadStoreQueue lsq(4);
  static const StaticInst st = mem_op(OpClass::kStore);
  DynInst a = dyn(&st, 0, 1), b = dyn(&st, 0, 2);
  lsq.push(&a);
  lsq.push(&b);
  EXPECT_THROW(lsq.pop(&b), std::logic_error);
  lsq.pop(&a);
  lsq.pop(&b);
  EXPECT_EQ(lsq.occupancy(), 0u);
}

TEST(FuncUnits, Table1Latencies) {
  FuncUnitPool fu;
  EXPECT_EQ(fu.timing(OpClass::kIntAlu).latency, 1u);
  EXPECT_EQ(fu.timing(OpClass::kIntMult).latency, 3u);
  EXPECT_EQ(fu.timing(OpClass::kIntDiv).latency, 20u);
  EXPECT_EQ(fu.timing(OpClass::kIntDiv).interval, 19u);
  EXPECT_EQ(fu.timing(OpClass::kFpAdd).latency, 2u);
  EXPECT_EQ(fu.timing(OpClass::kFpMult).latency, 4u);
  EXPECT_EQ(fu.timing(OpClass::kFpDiv).latency, 12u);
  EXPECT_EQ(fu.timing(OpClass::kFpSqrt).latency, 24u);
  EXPECT_EQ(fu.group_size(OpClass::kIntAlu), 8u);
  EXPECT_EQ(fu.group_size(OpClass::kLoad), 4u);
  EXPECT_EQ(fu.group_size(OpClass::kFpMult), 4u);
}

TEST(FuncUnits, UnpipelinedDivBlocksItsUnit) {
  FuncUnitPool fu;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fu.can_issue(OpClass::kIntDiv, 0));
    fu.issue(OpClass::kIntDiv, 0);
  }
  EXPECT_FALSE(fu.can_issue(OpClass::kIntDiv, 0));
  EXPECT_FALSE(fu.can_issue(OpClass::kIntMult, 5));  // same units
  EXPECT_TRUE(fu.can_issue(OpClass::kIntDiv, 19));
}

TEST(FuncUnits, PipelinedUnitsFreeNextCycle) {
  FuncUnitPool fu;
  for (int i = 0; i < 8; ++i) fu.issue(OpClass::kIntAlu, 0);
  EXPECT_FALSE(fu.can_issue(OpClass::kIntAlu, 0));
  EXPECT_TRUE(fu.can_issue(OpClass::kIntAlu, 1));
}

TEST(FetchPolicy, IcountPrefersLeastLoaded) {
  std::vector<ThreadId> order;
  fetch_order(FetchPolicyKind::kIcount, {10, 2, 5}, 0, order);
  EXPECT_EQ(order, (std::vector<ThreadId>{1, 2, 0}));
  // Every policy but round-robin ranks by ICOUNT, ties by thread id.
  for (FetchPolicyKind kind : {FetchPolicyKind::kIcount, FetchPolicyKind::kStall,
                               FetchPolicyKind::kFlush, FetchPolicyKind::kDcra}) {
    fetch_order(kind, {3, 1, 3, 1}, 7, order);
    EXPECT_EQ(order, (std::vector<ThreadId>{1, 3, 0, 2})) << fetch_policy_name(kind);
  }
}

TEST(FetchPolicy, StallGatesOnOutstandingL2) {
  EXPECT_TRUE(gates_fetch_on_l2_miss(FetchPolicyKind::kStall));
  for (FetchPolicyKind kind :
       {FetchPolicyKind::kRoundRobin, FetchPolicyKind::kIcount, FetchPolicyKind::kDcra})
    EXPECT_FALSE(gates_fetch_on_l2_miss(kind)) << fetch_policy_name(kind);
}

// FLUSH gates fetch like STALL; the core's un-dispatch on a detected miss is
// SmtCore.FlushPolicyUndispatchesOnL2Miss.
TEST(FetchPolicy, FlushRequestsSquash) {
  EXPECT_TRUE(gates_fetch_on_l2_miss(FetchPolicyKind::kFlush));
}

TEST(FetchPolicy, RoundRobinRotates) {
  const std::vector<u32> icount{9, 0, 4, 1};  // ignored
  std::vector<ThreadId> order;
  fetch_order(FetchPolicyKind::kRoundRobin, icount, 0, order);
  EXPECT_EQ(order, (std::vector<ThreadId>{0, 1, 2, 3}));
  fetch_order(FetchPolicyKind::kRoundRobin, icount, 1, order);
  EXPECT_EQ(order, (std::vector<ThreadId>{1, 2, 3, 0}));
  fetch_order(FetchPolicyKind::kRoundRobin, icount, 5, order);
  EXPECT_EQ(order[0], 1u);
}

TEST(Dcra, RegisterGuardStopsAtSevenEighthsOfEachPool) {
  EXPECT_TRUE(dcra_within_reg_guard(83, 96, 0, 96));
  EXPECT_FALSE(dcra_within_reg_guard(84, 96, 0, 96));  // 96 - 96/8 = 84
  EXPECT_FALSE(dcra_within_reg_guard(0, 96, 84, 96));
  EXPECT_TRUE(dcra_within_reg_guard(500, 0, 500, 0));  // an empty pool is unguarded
}

}  // namespace
}  // namespace tlrob

// Unit tests for the paper's core contribution: the reorder buffer, the
// shared second-level partition, the DoD counting mechanism, the DoD
// predictor and the allocation controllers.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rob/allocation_policy.hpp"
#include "rob/dod_predictor.hpp"
#include "rob/rob.hpp"
#include "rob/two_level_rob.hpp"

namespace tlrob {
namespace {

StaticInst static_load(Addr pc = 0x400000) {
  static std::vector<std::unique_ptr<StaticInst>> pool;
  pool.push_back(std::make_unique<StaticInst>());
  pool.back()->op = OpClass::kLoad;
  pool.back()->dest = ireg(1);
  pool.back()->agen_id = 0;
  pool.back()->pc = pc;
  return *pool.back();
}

DynInst make_inst(u64 tseq, bool executed = false, OpClass op = OpClass::kIntAlu) {
  DynInst di;
  di.tseq = tseq;
  di.seq = tseq;
  di.op = op;
  di.executed = executed;
  return di;
}

TEST(Rob, PushFindPop) {
  ReorderBuffer rob(4);
  rob.push(make_inst(1));
  rob.push(make_inst(2));
  rob.push(make_inst(5));  // gaps are fine (squashed tseqs are never reused)
  EXPECT_EQ(rob.size(), 3u);
  ASSERT_NE(rob.find(5), nullptr);
  EXPECT_EQ(rob.find(5)->tseq, 5u);
  EXPECT_EQ(rob.find(3), nullptr);
  EXPECT_EQ(rob.find(99), nullptr);
  rob.pop_head();
  EXPECT_EQ(rob.find(1), nullptr);
  EXPECT_EQ(rob.head()->tseq, 2u);
}

TEST(Rob, RejectsOverflowAndDisorder) {
  ReorderBuffer rob(2);
  rob.push(make_inst(1));
  rob.push(make_inst(2));
  EXPECT_TRUE(rob.full());
  EXPECT_THROW(rob.push(make_inst(3)), std::logic_error);
  ReorderBuffer rob2(4);
  rob2.push(make_inst(5));
  EXPECT_THROW(rob2.push(make_inst(5)), std::logic_error);
  EXPECT_THROW(rob2.push(make_inst(3)), std::logic_error);
}

TEST(Rob, CapacityGrowsAndShrinksWithGrant) {
  ReorderBuffer rob(32);
  EXPECT_EQ(rob.capacity(), 32u);
  rob.grant_extra(384);
  EXPECT_EQ(rob.capacity(), 416u);
  EXPECT_FALSE(rob.full());
  rob.revoke_extra();
  EXPECT_EQ(rob.capacity(), 32u);
}

TEST(Rob, FirstLevelFullIndependentOfGrant) {
  ReorderBuffer rob(2);
  rob.grant_extra(8);
  rob.push(make_inst(1));
  EXPECT_FALSE(rob.first_level_full());
  rob.push(make_inst(2));
  EXPECT_TRUE(rob.first_level_full());
  EXPECT_FALSE(rob.full());
}

TEST(Rob, SquashAfterRemovesSuffixYoungestFirst) {
  ReorderBuffer rob(8);
  for (u64 i = 1; i <= 5; ++i) rob.push(make_inst(i));
  std::vector<u64> removed;
  rob.squash_after(2, [&](DynInst& d) { removed.push_back(d.tseq); });
  EXPECT_EQ(removed, (std::vector<u64>{5, 4, 3}));
  EXPECT_EQ(rob.size(), 2u);
}

TEST(Rob, DodProxyCountsUnexecutedYoungerWithinWindow) {
  ReorderBuffer rob(8);
  rob.push(make_inst(1, /*executed=*/false, OpClass::kLoad));  // the missing load
  rob.push(make_inst(2, true));
  rob.push(make_inst(3, false));
  rob.push(make_inst(4, false));
  rob.push(make_inst(5, true));
  rob.push(make_inst(6, false));
  EXPECT_EQ(rob.count_unexecuted_younger(1, 32), 3u);
  EXPECT_EQ(rob.count_unexecuted_younger(1, 2), 1u);  // window clips the scan
  EXPECT_EQ(rob.count_unexecuted_younger(6, 32), 0u);
}

TEST(Rob, TrueDependentsFollowsTransitiveDataflow) {
  ReorderBuffer rob(8);
  DynInst load = make_inst(1, false, OpClass::kLoad);
  load.dest_phys = 100;
  DynInst direct = make_inst(2);
  direct.src_phys[0] = 100;
  direct.dest_phys = 101;
  DynInst indirect = make_inst(3);
  indirect.src_phys[1] = 101;
  indirect.dest_phys = 102;
  DynInst unrelated = make_inst(4);
  unrelated.src_phys[0] = 55;
  unrelated.dest_phys = 103;
  const DynInst& l = rob.push(std::move(load));
  rob.push(std::move(direct));
  rob.push(std::move(indirect));
  rob.push(std::move(unrelated));
  EXPECT_EQ(rob.count_true_dependents(l), 2u);
}

TEST(SecondLevel, SingleOwnerSemantics) {
  SecondLevelRob s(384, 4);
  EXPECT_TRUE(s.available());
  s.allocate(2, 100);
  EXPECT_FALSE(s.available());
  EXPECT_TRUE(s.owned_by(2));
  EXPECT_THROW(s.allocate(1, 110), std::logic_error);
  s.release(250);
  EXPECT_TRUE(s.available());
  EXPECT_EQ(s.busy_cycles(300), 150u);
  EXPECT_EQ(s.total_grants(), 1u);
  EXPECT_THROW(s.release(300), std::logic_error);
}

// The one ledger of grants and tenures: a partition held across the warmup
// reset is one grant to its holder, held from the reset on, and an open
// tenure counts up to the reading.
TEST(SecondLevel, LedgerCountsAHeldPartitionOnceFromTheReset) {
  SecondLevelRob s(384, 3);
  s.allocate(0, 10);
  s.release(40);
  s.allocate(1, 100);
  s.reset_accounting(150);
  EXPECT_EQ(s.grants(), (std::vector<u64>{0, 1, 0}));
  EXPECT_EQ(s.held_cycles(200), (std::vector<u64>{0, 50, 0}));
  EXPECT_EQ(s.acquired_at(), 150u);
  s.release(250);
  s.allocate(2, 300);
  EXPECT_EQ(s.grants(), (std::vector<u64>{0, 1, 1}));
  EXPECT_EQ(s.total_grants(), 2u);
  EXPECT_EQ(s.held_cycles(320), (std::vector<u64>{0, 100, 20}));
  EXPECT_EQ(s.busy_cycles(320), 120u);
  s.reset_accounting(400);
  s.release(401);
  EXPECT_EQ(s.grants(), (std::vector<u64>{0, 0, 1}));
  EXPECT_EQ(s.busy_cycles(500), 1u);
}

TEST(SecondLevel, ZeroEntriesNeverAvailable) {
  SecondLevelRob s(0, 1);
  EXPECT_FALSE(s.available());
}

TEST(DodPredictor, LastValueSemantics) {
  DodPredictor p(256);
  EXPECT_FALSE(p.predict(0, 0x400).has_value());
  p.update(0, 0x400, 7);
  EXPECT_EQ(p.predict(0, 0x400).value(), 7u);
  p.update(0, 0x400, 3);
  EXPECT_EQ(p.predict(0, 0x400).value(), 3u);
  EXPECT_EQ(p.stats().cold_installs, 1u);
  EXPECT_EQ(p.stats().value_changes, 1u);
}

TEST(DodPredictor, ThreadsAndPcsAreDistinguished) {
  DodPredictor p(4096);
  p.update(0, 0x400, 5);
  p.update(1, 0x400, 9);
  EXPECT_EQ(p.predict(0, 0x400).value(), 5u);
  EXPECT_EQ(p.predict(1, 0x400).value(), 9u);
  EXPECT_FALSE(p.predict(0, 0x404).has_value());
}

TEST(DodPredictor, RejectsNonPowerOfTwo) {
  EXPECT_THROW(DodPredictor(100), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Controller tests drive the policy against hand-built ROB contents.
// ---------------------------------------------------------------------------

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : rob0_(32), rob1_(32), second_(384, 2) {}

  TwoLevelRobController make(RobScheme scheme, u32 threshold) {
    RobPolicyConfig cfg;
    cfg.scheme = scheme;
    cfg.dod_threshold = threshold;
    cfg.lease_limit = 1000;
    cfg.lease_cooldown = 500;
    return TwoLevelRobController(cfg, {&rob0_, &rob1_}, second_);
  }

  /// Fills rob0 with a missing load at the head plus `unexec` unexecuted and
  /// the rest executed instructions (full 32-entry first level).
  DynInst& fill_rob0_with_miss(u32 unexec) {
    DynInst load = make_inst(next_tseq_++, false, OpClass::kLoad);
    load.si = &load_si_;
    load.pc = load_si_.pc;
    load.is_l2_miss = true;
    DynInst& ref = rob0_.push(std::move(load));
    for (u32 i = 1; i < 32; ++i)
      rob0_.push(make_inst(next_tseq_++, /*executed=*/i > unexec));
    return ref;
  }

  StaticInst load_si_ = static_load();
  ReorderBuffer rob0_;
  ReorderBuffer rob1_;
  SecondLevelRob second_;
  u64 next_tseq_ = 1;
};

TEST_F(ControllerTest, ReactiveAllocatesWhenAllConditionsHold) {
  auto ctrl = make(RobScheme::kReactive, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  EXPECT_TRUE(second_.owned_by(0));
  EXPECT_EQ(rob0_.capacity(), 32u + 384u);
}

TEST_F(ControllerTest, ReactiveRejectsHighDod) {
  auto ctrl = make(RobScheme::kReactive, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/20);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  EXPECT_TRUE(second_.available());
  EXPECT_GE(ctrl.stats().rejected_high_dod, 1u);
}

TEST_F(ControllerTest, ReactiveRequiresLoadAtHead) {
  auto ctrl = make(RobScheme::kReactive, 16);
  rob0_.push(make_inst(next_tseq_++, false));  // older non-load blocks
  DynInst load = make_inst(next_tseq_++, false, OpClass::kLoad);
  load.si = &load_si_;
  load.is_l2_miss = true;
  DynInst& ref = rob0_.push(std::move(load));
  for (u32 i = 2; i < 32; ++i) rob0_.push(make_inst(next_tseq_++, true));
  ctrl.on_l2_miss_detected(ref, 100);
  ctrl.tick(100);
  EXPECT_TRUE(second_.available());
}

TEST_F(ControllerTest, ReactiveRequiresFullFirstLevelButRelaxedDoesNot) {
  {
    auto ctrl = make(RobScheme::kReactive, 16);
    DynInst load = make_inst(next_tseq_++, false, OpClass::kLoad);
    load.si = &load_si_;
    load.is_l2_miss = true;
    DynInst& ref = rob0_.push(std::move(load));  // ROB only 1/32 full
    ctrl.on_l2_miss_detected(ref, 100);
    ctrl.tick(100);
    EXPECT_TRUE(second_.available());
  }
  {
    auto ctrl = make(RobScheme::kRelaxedReactive, 15);
    DynInst* head = rob0_.head();
    ctrl.on_l2_miss_detected(*head, 200);
    ctrl.tick(200);
    EXPECT_TRUE(second_.owned_by(0));
  }
}

TEST_F(ControllerTest, ReactiveRechecksEveryInterval) {
  auto ctrl = make(RobScheme::kReactive, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/20);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);  // rejected: DoD 20 >= 16
  ASSERT_TRUE(second_.available());
  EXPECT_EQ(ctrl.stats().rejected_high_dod, 1u);
  // Independent work completes; the count drops below the threshold.
  rob0_.for_each([&](DynInst& d) {
    if (!d.is_load() && !d.executed) d.executed = true;
  });
  ctrl.tick(105);  // before the 10-cycle recheck: no decision yet
  EXPECT_TRUE(second_.available());
  ctrl.tick(110);
  EXPECT_TRUE(second_.owned_by(0));
  EXPECT_EQ(ctrl.stats().rejected_high_dod, 1u);
}

TEST_F(ControllerTest, HeadLoadDetectedAfterAYoungerMissGetsTheGrantAtItsOwnRecheck) {
  auto ctrl = make(RobScheme::kReactive, 16);
  DynInst& head = fill_rob0_with_miss(/*unexec=*/5);
  DynInst& younger = *rob0_.find(head.tseq + 1);  // unexecuted, so in head's DoD
  younger.op = OpClass::kLoad;
  younger.si = &load_si_;
  younger.is_l2_miss = true;
  ctrl.on_l2_miss_detected(younger, 100);
  for (Cycle t = 100; t < 105; ++t) EXPECT_FALSE(ctrl.tick(t)) << "not the head: defers";
  ctrl.on_l2_miss_detected(head, 105);
  ASSERT_EQ(ctrl.audit_candidates(0).size(), 2u);
  EXPECT_EQ(ctrl.audit_candidates(0)[0].tseq, head.tseq) << "candidates stay in tseq order";
  EXPECT_TRUE(ctrl.tick(105));
  EXPECT_TRUE(second_.owned_by(0));
  EXPECT_EQ(ctrl.audit_trigger_tseq(0), head.tseq);
  ASSERT_EQ(ctrl.audit_candidates(0).size(), 1u);

  // The head commits; the younger load, now the head, keeps its own grid
  // (100 + 10k) and renews the lease at its first point after the commit.
  ctrl.on_load_fill(head, 200);
  head.executed = true;
  rob0_.pop_head();
  rob0_.push(make_inst(next_tseq_++, /*executed=*/true));  // level 1 stays full
  for (Cycle t = 201; t < 210; ++t) ctrl.tick(t);
  EXPECT_EQ(ctrl.stats().lease_grants_or_renewals, 1u);
  ctrl.tick(210);
  EXPECT_EQ(ctrl.stats().lease_grants_or_renewals, 2u);
  EXPECT_EQ(ctrl.audit_trigger_tseq(0), younger.tseq);
}

// Only the front candidate can name the head, so a younger one whose grid
// reaches the thread's gate first must not end the core's sleep there.
TEST_F(ControllerTest, NonFrontCandidateDoesNotBoundTheIdleWake) {
  auto ctrl = make(RobScheme::kReactive, 16);  // re-check 10, cooldown 500
  // Thread 1 contends with a miss its non-full window never lets it grant.
  DynInst l1 = make_inst(1, false, OpClass::kLoad);
  l1.si = &load_si_;
  l1.tid = 1;
  l1.is_l2_miss = true;
  ctrl.on_l2_miss_detected(rob1_.push(std::move(l1)), 100);
  // Thread 0: the head miss A, then loads B and C, all in A's DoD.
  DynInst& a = fill_rob0_with_miss(/*unexec=*/0);
  DynInst& b = *rob0_.find(a.tseq + 1);
  DynInst& c = *rob0_.find(a.tseq + 2);
  for (DynInst* d : {&b, &c}) {
    d->op = OpClass::kLoad;
    d->si = &load_si_;
    d->executed = false;
  }
  ctrl.on_l2_miss_detected(a, 100);
  ctrl.tick(100);
  ASSERT_TRUE(second_.owned_by(0));
  // A fills and commits; a contended release at 201 puts thread 0 in
  // cooldown until 701.
  ctrl.on_load_fill(a, 200);
  a.executed = true;
  rob0_.pop_head();
  ctrl.tick(201);
  ASSERT_TRUE(second_.available());

  b.is_l2_miss = c.is_l2_miss = true;
  ctrl.on_l2_miss_detected(b, 300);
  ctrl.tick(300);  // B, the head, defers on the cooldown: grid 300 + 10k
  ctrl.on_l2_miss_detected(c, 303);
  EXPECT_FALSE(ctrl.tick(303));  // C, behind B, keeps its grid 303 + 10k
  // C's first point after the gate (703) precedes B's (710).
  EXPECT_EQ(ctrl.next_wake(303), 710u);
}

TEST_F(ControllerTest, UnchangedInputsRepeatTheRecordedRejection) {
  auto ctrl = make(RobScheme::kReactive, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/20);
  ctrl.on_l2_miss_detected(load, 100);
  for (Cycle t = 100; t <= 130; t += 5) ctrl.tick(t);
  // Re-checks at 100, 110, 120 and 130 only, and every one counts.
  EXPECT_EQ(ctrl.stats().rejected_high_dod, 4u);
  EXPECT_TRUE(second_.available());
}

TEST_F(ControllerTest, CdrWaitsForSnapshotDelay) {
  auto ctrl = make(RobScheme::kCdr, 15);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  EXPECT_TRUE(second_.available()) << "CDR must not decide before the 32-cycle delay";
  ctrl.tick(131);
  EXPECT_TRUE(second_.available());
  ctrl.tick(132);
  EXPECT_TRUE(second_.owned_by(0));
}

TEST_F(ControllerTest, PredictiveAllocatesOnlyWithTrainedPredictor) {
  auto ctrl = make(RobScheme::kPredictive, 8);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(load, 100);  // cold: no prediction
  ctrl.tick(100);
  EXPECT_TRUE(second_.available());
  EXPECT_EQ(ctrl.stats().prediction_cold_misses, 1u);

  // The fill trains the predictor with the actual count (5 < 8).
  ctrl.on_load_fill(load, 600);
  ASSERT_TRUE(ctrl.predictor()->predict(0, load.pc).has_value());

  // Drain and reissue the same static load: now it predicts and allocates.
  rob0_.squash_after(0, [](DynInst&) {});
  DynInst& load2 = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(load2, 1200);
  EXPECT_TRUE(second_.owned_by(0));
  EXPECT_EQ(ctrl.stats().predictive_allocations, 1u);
}

TEST_F(ControllerTest, PredictiveVerificationFailureDropsLease) {
  auto ctrl = make(RobScheme::kPredictive, 8);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_load_fill(load, 50);  // trains count 5
  rob0_.squash_after(0, [](DynInst&) {});

  DynInst& load2 = fill_rob0_with_miss(/*unexec=*/20);  // actual DoD is high
  ctrl.on_l2_miss_detected(load2, 1000);                // predicted 5 -> allocate
  ASSERT_TRUE(second_.owned_by(0));
  ctrl.on_load_fill(load2, 1500);  // verification: 20 >= 8
  EXPECT_EQ(ctrl.stats().verification_failures, 1u);
  // Lease is no longer justified: once drained the partition frees.
  rob0_.squash_after(0, [](DynInst&) {});
  ctrl.tick(1501);
  EXPECT_TRUE(second_.available());
}

TEST_F(ControllerTest, ReleaseWaitsForTriggerAndDrain) {
  auto ctrl = make(RobScheme::kReactive, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  ASSERT_TRUE(second_.owned_by(0));
  // Dispatch past the first level while the lease is held.
  for (u32 i = 0; i < 10; ++i) rob0_.push(make_inst(next_tseq_++, true));
  ctrl.tick(150);
  EXPECT_TRUE(second_.owned_by(0)) << "trigger still outstanding";
  load.executed = true;  // fill
  ctrl.tick(160);
  EXPECT_TRUE(second_.owned_by(0)) << "must drain to the first level first";
  EXPECT_EQ(rob0_.extra(), 0u) << "no further second-level dispatch while draining";
  while (rob0_.size() > 30) rob0_.pop_head();
  ctrl.tick(170);
  EXPECT_TRUE(second_.available());
}

TEST_F(ControllerTest, LeaseExpiryStopsRenewalAndCooldownBlocksReacquisition) {
  auto ctrl = make(RobScheme::kReactive, 16);  // lease 1000, cooldown 500
  DynInst& load = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  ASSERT_TRUE(second_.owned_by(0));

  // A second thread now has a qualifying candidate pending.
  DynInst l1 = make_inst(1, false, OpClass::kLoad);
  l1.si = &load_si_;
  l1.tid = 1;
  l1.is_l2_miss = true;
  DynInst& load1 = rob1_.push(std::move(l1));
  for (u32 i = 1; i < 32; ++i) rob1_.push(make_inst(i + 1, true));
  ctrl.on_l2_miss_detected(load1, 150);

  // Past the lease limit the holder's fresh misses stop renewing.
  load.executed = true;
  ctrl.tick(1200);  // trigger dead + drained? not drained yet
  while (rob0_.size() > 0) rob0_.pop_head();
  ctrl.tick(1210);
  EXPECT_FALSE(second_.owned_by(0));
  // Thread 1's pending candidate grabs it on a later tick.
  ctrl.tick(1220);
  EXPECT_TRUE(second_.owned_by(1));

  // Thread 0 is in cooldown: a new qualifying miss must not steal it back
  // even after thread 1 releases.
  load1.executed = true;
  while (rob1_.size() > 0) rob1_.pop_head();
  ctrl.tick(1230);
  ASSERT_TRUE(second_.available());
  DynInst& load0b = fill_rob0_with_miss(5);
  ctrl.on_l2_miss_detected(load0b, 1240);
  ctrl.tick(1240);
  EXPECT_FALSE(second_.owned_by(0)) << "cooldown must block re-acquisition";
}

// Quiet re-check replay. CDR, thread 0: load A takes the partition at 132
// (lease expiry 132 + 1000 = 1132), then the younger load B, detected at
// 1005, is rejected for a high DoD at every re-check (1037, 1047, ...) while
// the lease can still be renewed. From the first re-check after the expiry
// (1137) on, B can no longer renew and is deferred without a rejection.
class QuietReplayTest : public ControllerTest {
 protected:
  QuietReplayTest() : ctrl_(make(RobScheme::kCdr, 15)) {
    DynInst& a = push_load();
    for (u32 i = 0; i < 5; ++i) rob0_.push(make_inst(next_tseq_++));
    ctrl_.on_l2_miss_detected(a, 100);
    ctrl_.tick(132);  // CDR snapshot: DoD 5 < 15
    EXPECT_TRUE(second_.owned_by(0));
    b_ = &push_load();
    for (u32 i = 0; i < 30; ++i) rob0_.push(make_inst(next_tseq_++));  // B's DoD: 30
    ctrl_.on_l2_miss_detected(*b_, 1005);
  }

  DynInst& push_load() {
    DynInst load = make_inst(next_tseq_++, false, OpClass::kLoad);
    load.si = &load_si_;
    load.is_l2_miss = true;
    return rob0_.push(std::move(load));
  }

  /// Completes B's unexecuted younger instructions until its DoD is `dod`.
  void execute_younger_of_b_down_to(u32 dod) {
    u32 left = rob0_.count_unexecuted_younger(b_->tseq, rob0_.base_capacity());
    rob0_.for_each([&](DynInst& d) {
      if (left > dod && d.tseq > b_->tseq && !d.executed) {
        d.executed = true;
        --left;
      }
    });
  }

  TwoLevelRobController ctrl_;
  DynInst* b_ = nullptr;
};

TEST_F(QuietReplayTest, TickedRechecksRejectUntilTheLeaseExpires) {
  for (Cycle t = 1037; t <= 1127; t += 10) ctrl_.tick(t);
  EXPECT_EQ(ctrl_.stats().rejected_high_dod, 10u);
  // The idle decision at 1130 rejects again and holds until the expiry
  // (1132), so the re-check at 1137 may differ.
  EXPECT_EQ(ctrl_.next_wake(1130), 1137u);
  // At 1133 the lease has expired: the idle decision sees a lease B can no
  // longer renew — a deferral no gate ends.
  EXPECT_EQ(ctrl_.next_wake(1133), kNeverCycle);
  EXPECT_EQ(ctrl_.stats().rejected_high_dod, 10u);
  ctrl_.tick(1137);
  EXPECT_EQ(ctrl_.stats().rejected_high_dod, 10u);
}

TEST_F(QuietReplayTest, ReplayMatchesTickingUpToTheGate) {
  ctrl_.tick(1037);
  ASSERT_EQ(ctrl_.stats().rejected_high_dod, 1u);
  // A window edit after the tick leaves B's DoD at 30: the idle decision at
  // 1040 rejects again and counts nothing itself.
  rob0_.push(make_inst(next_tseq_++, /*executed=*/true));
  EXPECT_EQ(ctrl_.next_wake(1040), 1137u);
  EXPECT_EQ(ctrl_.stats().rejected_high_dod, 1u);
  ctrl_.replay_idle_to(1137);
  EXPECT_EQ(ctrl_.stats().rejected_high_dod, 10u);  // as ticked: 1037 ... 1127
  ctrl_.tick(1137);
  EXPECT_EQ(ctrl_.stats().rejected_high_dod, 10u);
}

TEST_F(QuietReplayTest, AnIdleEvaluationThatWouldGrantWakesAtTheNextRecheck) {
  ctrl_.tick(1037);
  ASSERT_EQ(ctrl_.stats().rejected_high_dod, 1u);
  execute_younger_of_b_down_to(14);
  EXPECT_EQ(ctrl_.next_wake(1040), 1047u);
  ctrl_.tick(1047);  // B renews the lease and retires
  EXPECT_FALSE(ctrl_.has_pending_candidate(0));
  EXPECT_EQ(ctrl_.stats().lease_grants_or_renewals, 2u);
  EXPECT_EQ(ctrl_.stats().rejected_high_dod, 1u);
}

TEST_F(QuietReplayTest, EveryTickedRecheckDecidesFromTheLiveWindow) {
  ctrl_.tick(1037);
  ASSERT_EQ(ctrl_.stats().rejected_high_dod, 1u);
  // Nothing but the result-valid bits changes: B's DoD drops to 0 < 15.
  rob0_.for_each([&](DynInst& d) {
    if (d.tseq > b_->tseq) d.executed = true;
  });
  ctrl_.tick(1047);  // B renews the lease and retires
  EXPECT_FALSE(ctrl_.has_pending_candidate(0));
  EXPECT_EQ(ctrl_.stats().lease_grants_or_renewals, 2u);
  EXPECT_EQ(ctrl_.stats().rejected_high_dod, 1u);
}

TEST_F(ControllerTest, SquashDropsCandidates) {
  auto ctrl = make(RobScheme::kReactive, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/20);  // rejected, stays pending
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  ctrl.on_squash(0, 0);  // everything squashed
  rob0_.squash_after(0, [](DynInst&) {});
  ctrl.tick(110);  // must not dereference the dead candidate
  EXPECT_TRUE(second_.available());
}

TEST_F(ControllerTest, AdaptiveGrowsWhenCommitBoundAndShrinksWhenIssueBound) {
  RobPolicyConfig cfg;
  cfg.scheme = RobScheme::kAdaptive;
  cfg.adaptive_interval = 128;
  cfg.adaptive_step = 16;
  cfg.adaptive_max_extra = 96;
  TwoLevelRobController ctrl(cfg, {&rob0_, &rob1_}, second_);

  // Commit-bound: full window behind an unexecuted head, everything younger
  // executed.
  fill_rob0_with_miss(/*unexec=*/0);
  ctrl.tick(128);
  EXPECT_EQ(rob0_.extra(), 16u);
  // Growth continues only once the thread actually fills the new partition.
  ctrl.tick(256);
  EXPECT_EQ(rob0_.extra(), 16u);
  while (!rob0_.full()) rob0_.push(make_inst(next_tseq_++, true));
  ctrl.tick(384);
  EXPECT_EQ(rob0_.extra(), 32u);
  EXPECT_EQ(ctrl.stats().adaptive_grows, 2u);

  // Issue-bound: many unexecuted instructions in the window.
  rob0_.for_each([](DynInst& d) {
    if (!d.is_load()) d.executed = false;
  });
  ctrl.tick(512);
  EXPECT_EQ(rob0_.extra(), 16u);
  ctrl.tick(640);
  EXPECT_EQ(rob0_.extra(), 0u);
  ctrl.tick(768);
  EXPECT_EQ(rob0_.extra(), 0u);  // floor

  // Decisions only at the interval boundary; never touches the partition.
  ctrl.tick(830);
  EXPECT_EQ(ctrl.stats().adaptive_shrinks, 2u);
  EXPECT_TRUE(second_.available());
}

TEST_F(ControllerTest, AdaptiveGrowthIsBounded) {
  RobPolicyConfig cfg;
  cfg.scheme = RobScheme::kAdaptive;
  cfg.adaptive_interval = 1;
  TwoLevelRobController ctrl(cfg, {&rob0_, &rob1_}, second_);
  fill_rob0_with_miss(/*unexec=*/0);
  for (Cycle c = 1; c < 1000; ++c) {
    ctrl.tick(c);
    // Keep it saturated so it always wants to grow.
    while (!rob0_.full()) rob0_.push(make_inst(next_tseq_++, true));
  }
  EXPECT_EQ(rob0_.extra(), cfg.adaptive_max_extra);
}

TEST_F(ControllerTest, BaselineSchemeIsInert) {
  auto ctrl = make(RobScheme::kBaseline, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/2);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  ctrl.on_load_fill(load, 600);
  EXPECT_TRUE(second_.available());
  EXPECT_EQ(second_.total_grants(), 0u);
}

}  // namespace
}  // namespace tlrob

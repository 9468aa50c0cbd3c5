// Unit tests for the branch-prediction substrate: bimodal tables, gshare,
// BTB, return address stack, composite predictor and load-hit predictor.
#include <gtest/gtest.h>

#include "branch/bimodal.hpp"
#include "branch/btb.hpp"
#include "branch/gshare.hpp"
#include "branch/load_hit_predictor.hpp"
#include "branch/predictor.hpp"
#include "branch/ras.hpp"

namespace tlrob {
namespace {

TEST(Bimodal, SaturatesAtBounds) {
  BimodalTable t(16);
  EXPECT_TRUE(t.predict(3));  // starts weakly taken (2)
  for (int i = 0; i < 10; ++i) t.update(3, false);
  EXPECT_FALSE(t.predict(3));
  EXPECT_EQ(t.counter(3), 0);
  for (int i = 0; i < 10; ++i) t.update(3, true);
  EXPECT_TRUE(t.predict(3));
  EXPECT_EQ(t.counter(3), 3);
}

TEST(Bimodal, HysteresisNeedsTwoFlips) {
  BimodalTable t(16);
  for (int i = 0; i < 4; ++i) t.update(5, true);  // saturate taken
  t.update(5, false);
  EXPECT_TRUE(t.predict(5));  // one not-taken does not flip
  t.update(5, false);
  EXPECT_FALSE(t.predict(5));
}

TEST(Bimodal, RejectsNonPowerOfTwo) {
  EXPECT_THROW(BimodalTable(12), std::invalid_argument);
  EXPECT_THROW(BimodalTable(0), std::invalid_argument);
}

TEST(Bimodal, IndexMasksWrap) {
  BimodalTable t(8);
  t.update(3, false);
  t.update(3, false);
  EXPECT_FALSE(t.predict(3 + 8));  // aliases onto the same counter
}

TEST(Gshare, LearnsAlternatingPatternThroughHistory) {
  Gshare g(1024, 8, 1);
  const Addr pc = 0x4000;
  // Alternating T/N/T/N is unpredictable for a bimodal counter but perfectly
  // predictable with history. Train, then measure accuracy.
  bool outcome = false;
  for (int i = 0; i < 400; ++i) {
    const auto p = g.predict(0, pc);
    g.update(pc, p.history_before, outcome);
    if (p.taken != outcome) g.recover(0, p.history_before, outcome);
    outcome = !outcome;
  }
  int correct = 0;
  for (int i = 0; i < 100; ++i) {
    const auto p = g.predict(0, pc);
    correct += (p.taken == outcome);
    g.update(pc, p.history_before, outcome);
    if (p.taken != outcome) g.recover(0, p.history_before, outcome);
    outcome = !outcome;
  }
  EXPECT_GT(correct, 95);
}

TEST(Gshare, RecoverRestoresHistory) {
  Gshare g(256, 10, 2);
  const auto p1 = g.predict(0, 0x100);
  EXPECT_NE(g.history(0), p1.history_before);  // speculatively shifted
  g.recover(0, p1.history_before, /*actual=*/!p1.taken);
  const u16 expected =
      static_cast<u16>(((p1.history_before << 1) | (!p1.taken ? 1 : 0)) & 0x3ff);
  EXPECT_EQ(g.history(0), expected);
}

TEST(Gshare, PerThreadHistoriesAreIndependent) {
  Gshare g(256, 10, 2);
  g.predict(0, 0x100);
  EXPECT_EQ(g.history(1), 0);  // thread 1 untouched
}

TEST(Btb, StoresAndEvictsLru) {
  Btb btb(8, 2);  // 4 sets x 2 ways
  // Three PCs mapping to the same set: the LRU one is evicted.
  const Addr a = 0x40, b = 0x40 + 4 * 4 * 4, c = 0x40 + 2 * 4 * 4 * 4;
  btb.update(0, a, 0x1000);
  btb.update(0, b, 0x2000);
  ASSERT_TRUE(btb.lookup(0, a).has_value());
  btb.lookup(0, a);  // touch a so b becomes LRU
  btb.update(0, c, 0x3000);
  EXPECT_TRUE(btb.lookup(0, a).has_value());
  EXPECT_TRUE(btb.lookup(0, c).has_value());
}

TEST(Btb, RejectsShapesItCannotIndex) {
  EXPECT_THROW(Btb(0, 2), std::invalid_argument);  // no set to index
  EXPECT_THROW(Btb(24, 2), std::invalid_argument);
  EXPECT_THROW(Btb(8, 3), std::invalid_argument);
}

TEST(Btb, UpdateRefreshesTarget) {
  Btb btb(2048, 2);
  btb.update(0, 0x400, 0x1000);
  btb.update(0, 0x400, 0x2000);
  EXPECT_EQ(btb.lookup(0, 0x400).value(), 0x2000u);
}

TEST(Btb, ThreadsDoNotAliasDestructively) {
  Btb btb(2048, 2);
  btb.update(0, 0x400, 0x1000);
  btb.update(1, 0x400, 0x2000);
  EXPECT_EQ(btb.lookup(0, 0x400).value(), 0x1000u);
  EXPECT_EQ(btb.lookup(1, 0x400).value(), 0x2000u);
}

TEST(Ras, PushPopLifo) {
  ReturnAddressStack ras;
  ras.push(0x100);
  ras.push(0x200);
  EXPECT_EQ(ras.pop(), 0x200u);
  EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(Ras, CheckpointRestoreUndoesWrongPathActivity) {
  ReturnAddressStack ras;
  ras.push(0x100);
  const u32 cp = ras.checkpoint();
  ras.push(0x200);  // wrong path
  ras.pop();
  ras.pop();  // wrong path popped the real entry's slot position
  ras.restore(cp);
  EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(Ras, WrapsWithoutCrashing) {
  ReturnAddressStack ras;
  for (u32 i = 0; i < ReturnAddressStack::kDepth + 4; ++i) ras.push(i);
  // Oldest entries are overwritten; the most recent survive.
  EXPECT_EQ(ras.pop(), ReturnAddressStack::kDepth + 3);
}

StaticInst make_ctrl(OpClass op, Addr pc) {
  StaticInst si;
  si.op = op;
  si.pc = pc;
  si.bgen_id = op == OpClass::kBranch ? 0 : -1;
  return si;
}

TEST(BranchPredictor, CallPushesReturnPredictsIt) {
  BranchPredictor bp(PredictorConfig{}, 1);
  const StaticInst call = make_ctrl(OpClass::kCall, 0x400000);
  const StaticInst ret = make_ctrl(OpClass::kReturn, 0x500000);
  bp.predict(0, call, /*target=*/0x500000, /*fallthrough=*/0x400004,
             /*return_pc=*/0x400004);
  const BranchPrediction p = bp.predict(0, ret, 0, 0x500004, 0);
  EXPECT_TRUE(p.taken);
  EXPECT_EQ(p.target, 0x400004u);
  EXPECT_TRUE(p.used_ras);
}

TEST(BranchPredictor, JumpPredictsStaticTarget) {
  BranchPredictor bp(PredictorConfig{}, 1);
  const StaticInst j = make_ctrl(OpClass::kJump, 0x400000);
  const BranchPrediction p = bp.predict(0, j, 0x410000, 0x400004, 0);
  EXPECT_TRUE(p.taken);
  EXPECT_EQ(p.target, 0x410000u);
}

TEST(BranchPredictor, TrainCountsMispredicts) {
  BranchPredictor bp(PredictorConfig{}, 1);
  const StaticInst br = make_ctrl(OpClass::kBranch, 0x400000);
  for (int i = 0; i < 50; ++i) {
    const BranchPrediction p = bp.predict(0, br, 0x410000, 0x400004, 0);
    const bool actual = false;  // never taken
    bp.train(0, br, p, actual, 0x400004);
    if (p.taken != actual) bp.recover(0, br, p, actual);
  }
  EXPECT_EQ(bp.stats().cond, 50u);
  // After warmup the never-taken branch is predicted correctly.
  EXPECT_LT(bp.stats().cond_mispredict, 10u);
}

TEST(LoadHitPredictor, LearnsStableBehaviour) {
  // Stable streams settle the global history, so each PC trains a fixed
  // (pc, history) counter.
  LoadHitPredictor always_hits(1024, 8, 1);
  for (int i = 0; i < 64; ++i) always_hits.update(0, 0x1000, true);
  EXPECT_TRUE(always_hits.predict(0, 0x1000));

  LoadHitPredictor always_misses(1024, 8, 1);
  for (int i = 0; i < 64; ++i) always_misses.update(0, 0x1000, false);
  EXPECT_FALSE(always_misses.predict(0, 0x1000));
}

TEST(LoadHitPredictor, HistoryDistinguishesContexts) {
  // A strictly periodic hit/miss pattern is fully predictable with history:
  // after warmup every (pc, history) counter sees a constant outcome.
  LoadHitPredictor lhp(1024, 8, 1);
  for (int i = 0; i < 512; ++i) lhp.update(0, 0x1000, i % 2 == 0);
  int correct = 0;
  bool outcome = true;  // i even first
  for (int i = 0; i < 64; ++i) {
    correct += lhp.predict(0, 0x1000) == outcome;
    lhp.update(0, 0x1000, outcome);
    outcome = !outcome;
  }
  EXPECT_GT(correct, 56);
}

}  // namespace
}  // namespace tlrob

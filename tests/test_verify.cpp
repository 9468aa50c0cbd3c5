// Tests for the pipeline invariant-audit subsystem (src/verify).
//
// Two halves:
//   * clean runs — every allocation scheme runs violation-free at audit
//     level "full" with abort-on-violation armed, so the checks themselves
//     are known not to false-positive on any scheme's legal states;
//   * injected corruption — each check is driven to fire by deliberately
//     breaking the structure it guards through the test-only hooks, so a
//     future refactor cannot silently turn a check into a no-op.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/presets.hpp"
#include "sim/smt_sim.hpp"
#include "verify/invariant_checker.hpp"
#include "workload/mixes.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob {
namespace {

AuditConfig full_audit(bool abort_on_violation) {
  AuditConfig audit;
  audit.level = AuditLevel::kFull;
  audit.cheap_interval = 1;
  audit.full_interval = 16;
  audit.abort_on_violation = abort_on_violation;
  return audit;
}

/// A four-thread memory-bound mix on the given scheme with auditing armed.
SmtCore make_audited_core(RobScheme scheme, bool abort_on_violation = false) {
  MachineConfig cfg = two_level_config(scheme, 16);
  cfg.audit = full_audit(abort_on_violation);
  return SmtCore(cfg, mix_benchmarks(table2_mix(1)));
}

/// Ticks until `pred()` holds (tripping the audit exception if armed).
template <typename Pred>
bool tick_until(SmtCore& core, u64 max_cycles, Pred&& pred) {
  for (u64 i = 0; i < max_cycles; ++i) {
    if (pred()) return true;
    core.tick();
  }
  return pred();
}

bool any_violation_of(const SmtCore& core, const std::string& check) {
  const auto& vs = const_cast<SmtCore&>(core).auditor().violations();
  return std::any_of(vs.begin(), vs.end(),
                     [&](const AuditViolation& v) { return v.check == check; });
}

// ---------------------------------------------------------------------------
// Configuration plumbing
// ---------------------------------------------------------------------------

TEST(AuditConfig, LevelParsingRoundTrips) {
  EXPECT_EQ(parse_audit_level("off"), AuditLevel::kOff);
  EXPECT_EQ(parse_audit_level("cheap"), AuditLevel::kCheap);
  EXPECT_EQ(parse_audit_level("full"), AuditLevel::kFull);
  EXPECT_THROW(parse_audit_level("loud"), std::invalid_argument);
  EXPECT_STREQ(audit_level_name(AuditLevel::kCheap), "cheap");
}

TEST(AuditConfig, DescribeMentionsAuditLevel) {
  MachineConfig cfg = baseline32_config();
  cfg.audit.level = AuditLevel::kFull;
  std::string label = "audit.level (audit)";
  label.resize(kDescribeLabelWidth, ' ');
  EXPECT_NE(describe(cfg).find("\n" + label + " full\n"), std::string::npos) << describe(cfg);
}

TEST(AuditConfig, OffLevelRunsNoChecks) {
  MachineConfig cfg = single_thread_config();
  cfg.audit = AuditConfig{};  // level off regardless of environment
  cfg.audit.level = AuditLevel::kOff;
  SmtCore core(cfg, {spec_benchmark("crafty")});
  core.run(2000);
  EXPECT_EQ(core.auditor().checks_executed(), 0u);
  EXPECT_EQ(core.auditor().total_violations(), 0u);
}

// ---------------------------------------------------------------------------
// Clean runs: all four allocation schemes are violation-free at level full
// ---------------------------------------------------------------------------

class CleanSchemes : public ::testing::TestWithParam<RobScheme> {};

TEST_P(CleanSchemes, FullAuditRunsViolationFree) {
  SmtCore core = make_audited_core(GetParam(), /*abort_on_violation=*/true);
  EXPECT_NO_THROW(core.run(4000));
  EXPECT_GT(core.auditor().checks_executed(), 0u);
  EXPECT_EQ(core.auditor().total_violations(), 0u);
  EXPECT_EQ(core.audit_now(), 0u);
}

// The suite's ids keep the schemes' long names.
std::string clean_scheme_id(RobScheme scheme) {
  static const char* const kIds[] = {"baseline", "r_rob", "relaxed_r_rob",
                                     "cdr_rob", "p_rob", "adaptive_rob"};
  return kIds[static_cast<int>(scheme)];
}

INSTANTIATE_TEST_SUITE_P(AllocationSchemes, CleanSchemes,
                         ::testing::Values(RobScheme::kReactive,
                                           RobScheme::kRelaxedReactive, RobScheme::kCdr,
                                           RobScheme::kPredictive, RobScheme::kBaseline,
                                           RobScheme::kAdaptive),
                         [](const auto& info) { return clean_scheme_id(info.param); });

// The audit watches the path every run takes: a fully audited run
// fast-forwards its idle spans, auditing each once per tier, and its results
// match an unaudited run's in everything outside audit.*.
TEST(CleanRuns, FullAuditFastForwardsAndChangesNothingElse) {
  MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);
  cfg.audit = AuditConfig{};
  const auto benches = mix_benchmarks(table2_mix(1));
  SmtCore plain(cfg, benches);
  RunResult a = plain.run(4000, 0, 1000);
  cfg.audit.level = AuditLevel::kFull;
  cfg.audit.abort_on_violation = true;
  SmtCore audited(cfg, benches);
  RunResult b = audited.run(4000, 0, 1000);

  EXPECT_GT(run_counter(b, "core.fast_forwarded_cycles"), 0u);
  EXPECT_GT(run_counter(b, "audit.checks_run"), 0u);
  EXPECT_EQ(run_counter(b, "audit.violations"), 0u);
  EXPECT_EQ(a.cycles, b.cycles);
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (size_t t = 0; t < a.threads.size(); ++t)
    EXPECT_EQ(a.threads[t].committed, b.threads[t].committed) << "thread " << t;
  EXPECT_EQ(a.dod_true, b.dod_true);
  EXPECT_EQ(a.dod_proxy, b.dod_proxy);
  std::erase_if(b.counters, [](const auto& kv) { return kv.first.starts_with("audit."); });
  EXPECT_EQ(a.counters, b.counters);
}

TEST(CleanRuns, SingleThreadFullAudit) {
  MachineConfig cfg = single_thread_config();
  cfg.audit = full_audit(true);
  SmtCore core(cfg, {spec_benchmark("art")});
  EXPECT_NO_THROW(core.run(4000));
  EXPECT_EQ(core.auditor().total_violations(), 0u);
}

// ---------------------------------------------------------------------------
// The span driver: one gating rule for executed ticks and skipped spans
// ---------------------------------------------------------------------------

/// Recording checks: each reports a violation at every audit point it runs
/// at, so the checker's violation log records the points; the kind names
/// the tier.
void record_cheap(const SmtCore&, Cycle cycle, InvariantChecker& out) {
  out.violation(cycle, kNoThread, "rob.order", "cheap tier ran");
}
void record_full(const SmtCore&, Cycle cycle, InvariantChecker& out) {
  out.violation(cycle, kNoThread, "dod.recount", "full tier ran");
}

/// A full-level checker (cheap tier every 8 cycles, full every 64) with one
/// recording check per tier; the standard checks see a fresh one-thread core.
struct SpanFixture {
  SmtCore core{single_thread_config(), {spec_benchmark("crafty")}};
  InvariantChecker checker;

  explicit SpanFixture(Cycle cheap_interval = 8)
      : checker(AuditConfig{AuditLevel::kFull, cheap_interval, 64, false}, 1) {
    checker.add_check({AuditTier::kCheap, record_cheap});
    checker.add_check({AuditTier::kFull, record_full});
  }
  void span(Cycle from, Cycle to) { checker.run_span(core, from, to); }
  /// The audit points at which the recording check of kind `kind` ran.
  std::vector<Cycle> runs(const std::string& kind) const {
    std::vector<Cycle> cycles;
    for (const AuditViolation& v : checker.violations())
      if (v.check == kind) cycles.push_back(v.cycle);
    return cycles;
  }
  std::vector<Cycle> cheap() const { return runs("rob.order"); }
  std::vector<Cycle> full() const { return runs("dod.recount"); }
};

TEST(AuditSpan, SpanWithoutAnAuditPointRunsNothing) {
  SpanFixture f;
  f.span(1, 8);
  f.span(65, 72);
  f.span(9, 9);
  EXPECT_TRUE(f.checker.violations().empty());
  EXPECT_EQ(f.checker.checks_executed(), 0u);
  // An interval near the top of the cycle range must not wrap around.
  SpanFixture huge(~Cycle{0} - 1);
  huge.span(5, 1000000);
  EXPECT_TRUE(huge.cheap().empty());
}

TEST(AuditSpan, EachTierRunsOnceAtItsFirstPoint) {
  SpanFixture f;
  f.span(3, 200);  // cheap points 8, 16, ..., 192; full points 64, 128, 192
  EXPECT_EQ(f.cheap(), std::vector<Cycle>{8});
  EXPECT_EQ(f.full(), std::vector<Cycle>{64});
  f.span(256, 257);  // the one-cycle case of an executed tick
  EXPECT_EQ(f.cheap(), (std::vector<Cycle>{8, 256}));
  EXPECT_EQ(f.full(), (std::vector<Cycle>{64, 256}));
}

TEST(AuditSpan, ViolationReportsTheFirstPointsCycle) {
  SpanFixture f;
  f.span(3, 200);
  ASSERT_EQ(f.checker.violations().size(), 2u) << f.checker.report();
  EXPECT_EQ(f.checker.violations()[0].cycle, 8u);
  EXPECT_EQ(f.checker.violations()[0].check, "rob.order");
  EXPECT_EQ(f.checker.violations()[1].cycle, 64u);
  EXPECT_EQ(f.checker.violations()[1].check, "dod.recount");
}

// ---------------------------------------------------------------------------
// Injected corruption: each check fires on the defect it guards
// ---------------------------------------------------------------------------

TEST(InjectedCorruption, RobOrderSwapFiresRobOrder) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  ASSERT_TRUE(tick_until(core, 20000, [&] { return core.rob(0).size() >= 2; }));
  ASSERT_EQ(core.audit_now(), 0u);
  core.rob_for_test(0).test_only_swap(0, 1);
  EXPECT_GT(core.audit_now(), 0u);
  EXPECT_TRUE(any_violation_of(core, "rob.order"));
}

TEST(InjectedCorruption, DuplicateCommitFiresCommitOrder) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  ASSERT_TRUE(tick_until(core, 20000, [&] { return core.committed(0) >= 10; }));
  const u64 last = core.auditor().last_committed()[0];
  ASSERT_GT(last, 0u);
  core.auditor().on_commit(0, last, core.now());  // same instruction twice
  EXPECT_TRUE(any_violation_of(core, "commit.order"));
}

TEST(InjectedCorruption, UnownedExtraCapacityFiresOwnership) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  core.run(500);
  ASSERT_EQ(core.audit_now(), 0u);
  // Grant a window with no allocation protocol behind it: nobody owns the
  // partition (or another thread does), so thread 0's grant is illegal.
  if (core.second_level().owned_by(0)) core.second_level().test_only_set_owner(1);
  core.rob_for_test(0).grant_extra(core.second_level().entries());
  EXPECT_GT(core.audit_now(), 0u);
  EXPECT_TRUE(any_violation_of(core, "rob2.ownership"));
}

TEST(InjectedCorruption, PartialGrantFiresAtomicUnitContract) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  // Wait for a legitimate allocation, then shave the grant: splitting the
  // partition violates the paper's atomic-unit allocation.
  const bool allocated = tick_until(core, 400000, [&] {
    return core.second_level().owner() != SecondLevelRob::kNoOwner &&
           core.rob(core.second_level().owner()).extra() > 0;
  });
  ASSERT_TRUE(allocated) << "no second-level allocation in 400k cycles";
  ASSERT_EQ(core.audit_now(), 0u);
  const ThreadId owner = core.second_level().owner();
  core.rob_for_test(owner).grant_extra(core.second_level().entries() / 2);
  EXPECT_GT(core.audit_now(), 0u);
  EXPECT_TRUE(any_violation_of(core, "rob2.ownership"));
}

TEST(InjectedCorruption, CompletedTriggerLoadFiresTriggerCheck) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  const bool allocated = tick_until(core, 400000, [&] {
    return core.second_level().owner() != SecondLevelRob::kNoOwner &&
           core.rob(core.second_level().owner()).extra() > 0;
  });
  ASSERT_TRUE(allocated) << "no second-level allocation in 400k cycles";
  ASSERT_EQ(core.audit_now(), 0u);
  // Forge the trigger load's result-valid bit: the grant is no longer
  // justified by an outstanding miss, which the controller should have
  // noticed and revoked.
  const ThreadId owner = core.second_level().owner();
  const u64 trigger = core.rob_controller().audit_trigger_tseq(owner);
  DynInst* load = core.rob_for_test(owner).find(trigger);
  ASSERT_NE(load, nullptr);
  load->executed = true;
  load->complete_cycle = core.now();  // keep dod.execflag quiet; this test is rob2.trigger
  EXPECT_GT(core.audit_now(), 0u);
  EXPECT_TRUE(any_violation_of(core, "rob2.trigger"));
}

TEST(InjectedCorruption, ExecutedCandidateLoadFiresCandidateCheck) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  const TwoLevelRobController& ctrl = core.rob_controller();
  ThreadId tid = 0;
  const bool pending = tick_until(core, 400000, [&] {
    for (tid = 0; tid < core.config().num_threads; ++tid)
      if (!ctrl.audit_candidates(tid).empty()) return true;
    return false;
  });
  ASSERT_TRUE(pending) << "no allocation candidate in 400k cycles";
  ASSERT_EQ(core.audit_now(), 0u);
  // Forge the result-valid bit without the fill notification: the candidate
  // outlives its miss, and behind the head nothing would ever retire it.
  DynInst* load = core.rob_for_test(tid).find(ctrl.audit_candidates(tid).front().tseq);
  ASSERT_NE(load, nullptr);
  load->executed = true;
  load->complete_cycle = core.now();  // keep dod.execflag quiet; this test is rob2.candidate
  EXPECT_GT(core.audit_now(), 0u);
  EXPECT_TRUE(any_violation_of(core, "rob2.candidate"));
}

TEST(InjectedCorruption, FreeCountSkewFiresIqCounts) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  core.run(500);
  ASSERT_EQ(core.audit_now(), 0u);
  core.iq_for_test().test_only_corrupt_free(+1);
  EXPECT_GT(core.audit_now(), 0u);
  EXPECT_TRUE(any_violation_of(core, "iq.counts"));
  core.iq_for_test().test_only_corrupt_free(-1);  // restore for teardown sanity
  EXPECT_EQ(core.audit_now(), 0u) << core.auditor().report();
}

TEST(InjectedCorruption, LsqSlotDoubleFreeFiresLsqOccupancy) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  ASSERT_TRUE(tick_until(core, 20000, [&] {
    for (ThreadId t = 0; t < core.config().num_threads; ++t)
      if (core.lsq_for_test(t).occupancy() > 0) return true;
    return false;
  }));
  ASSERT_EQ(core.audit_now(), 0u);
  for (ThreadId t = 0; t < core.config().num_threads; ++t) {
    if (core.lsq_for_test(t).occupancy() == 0) continue;
    core.lsq_for_test(t).test_only_drop_front();
    break;
  }
  EXPECT_GT(core.audit_now(), 0u);
  EXPECT_TRUE(any_violation_of(core, "lsq.occupancy"));
}

TEST(InjectedCorruption, LeakedRenameRegisterFiresRenameAccounting) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  core.run(500);
  ASSERT_EQ(core.audit_now(), 0u);
  core.rename_unit().test_only_leak_free_reg();
  EXPECT_GT(core.audit_now(), 0u);
  EXPECT_TRUE(any_violation_of(core, "rename.accounting"));
}

TEST(InjectedCorruption, ForgedMissFlagFiresOutstandingRecount) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  ASSERT_TRUE(tick_until(core, 20000, [&] { return core.rob(0).size() >= 1; }));
  ASSERT_EQ(core.audit_now(), 0u);
  // Forge an l2_counted flag the thread's outstanding counter never saw.
  bool forged = false;
  core.rob_for_test(0).for_each([&](DynInst& d) {
    if (!forged && !d.l2_counted) {
      d.l2_counted = true;
      forged = true;
    }
  });
  ASSERT_TRUE(forged);
  EXPECT_GT(core.audit_now(), 0u);
  EXPECT_TRUE(any_violation_of(core, "dod.outstanding"));
}

TEST(InjectedCorruption, ForgedResultValidBitFiresExecFlag) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  ASSERT_TRUE(tick_until(core, 20000, [&] {
    bool has_unexecuted = false;
    core.rob(0).for_each([&](const DynInst& d) { has_unexecuted |= !d.executed; });
    return has_unexecuted;
  }));
  ASSERT_EQ(core.audit_now(), 0u);
  // Set the result-valid bit without completion bookkeeping: the DoD
  // counter would silently under-count every window containing this entry.
  bool forged = false;
  core.rob_for_test(0).for_each([&](DynInst& d) {
    if (!forged && !d.executed) {
      d.executed = true;
      forged = true;
    }
  });
  ASSERT_TRUE(forged);
  EXPECT_GT(core.audit_now(), 0u);
  EXPECT_TRUE(any_violation_of(core, "dod.execflag"));
}

TEST(InjectedCorruption, RecycledLsqPointerFiresPoolLiveness) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  ASSERT_TRUE(tick_until(core, 20000, [&] {
    for (ThreadId t = 0; t < core.config().num_threads; ++t)
      if (core.lsq_for_test(t).occupancy() > 0) return true;
    return false;
  }));
  ASSERT_EQ(core.audit_now(), 0u);
  // Recycle ROB slots out from under the LSQ: pop heads until the LSQ's
  // oldest entry points at a slot the ring has reclaimed. This is the exact
  // stale-pointer defect the ring slab makes possible and heap allocation
  // hid behind allocator luck.
  for (ThreadId t = 0; t < core.config().num_threads; ++t) {
    LoadStoreQueue& lsq = core.lsq_for_test(t);
    if (lsq.occupancy() == 0) continue;
    u64 front_tseq = 0;
    bool first = true;
    lsq.for_each([&](const DynInst& e) {
      if (first) {
        front_tseq = e.tseq;
        first = false;
      }
    });
    ReorderBuffer& rob = core.rob_for_test(t);
    while (rob.head() != nullptr && rob.head()->tseq <= front_tseq) rob.pop_head();
    break;
  }
  EXPECT_GT(core.audit_now(), 0u);
  EXPECT_TRUE(any_violation_of(core, "pool.liveness"));
}

TEST(InjectedCorruption, SkewedPendingCountFiresEventWheel) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  core.run(500);
  ASSERT_EQ(core.audit_now(), 0u);
  core.wheel_for_test().test_only_corrupt_pending(+1);
  EXPECT_GT(core.audit_now(), 0u);
  EXPECT_TRUE(any_violation_of(core, "events.wheel"));
  core.wheel_for_test().test_only_corrupt_pending(-1);  // restore for teardown sanity
  EXPECT_EQ(core.audit_now(), 0u) << core.auditor().report();
}

TEST(InjectedCorruption, StaleOccupancyBitFiresEventWheel) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  core.run(500);
  ASSERT_EQ(core.audit_now(), 0u);
  // Either direction is stale: a cleared bit hides an occupied slot from the
  // drain and the next-event scan, a set one points them at an empty slot.
  const Cycle c = core.now() + 7;
  core.wheel_for_test().test_only_flip_occupancy(c);
  EXPECT_GT(core.audit_now(), 0u);
  EXPECT_TRUE(any_violation_of(core, "events.wheel"));
  core.wheel_for_test().test_only_flip_occupancy(c);
  EXPECT_EQ(core.audit_now(), 0u) << core.auditor().report();
}

TEST(InjectedCorruption, AbortOnViolationThrowsStructuredReport) {
  SmtCore core = make_audited_core(RobScheme::kReactive, /*abort_on_violation=*/true);
  EXPECT_NO_THROW(core.run(500));
  core.iq_for_test().test_only_corrupt_free(+1);
  try {
    core.audit_now();
    FAIL() << "expected AuditFailure";
  } catch (const AuditFailure& e) {
    EXPECT_NE(std::string(e.what()).find("iq.counts"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos);
  }
}

TEST(InjectedCorruption, ViolationsAreCountedInRunResultStats) {
  SmtCore core = make_audited_core(RobScheme::kReactive);
  core.run(500);
  core.rename_unit().test_only_leak_free_reg();
  core.audit_now();
  const RunResult r = core.snapshot_result();
  const auto it = r.counters.find("audit.violations.rename.accounting");
  ASSERT_NE(it, r.counters.end());
  EXPECT_GT(it->second, 0u);
  EXPECT_GT(r.counters.at("audit.checks_run"), 0u);
}

}  // namespace
}  // namespace tlrob

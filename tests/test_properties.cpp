// Property-based / parameterised tests: microarchitectural invariants that
// must hold for every benchmark, scheme and threshold, checked cycle by
// cycle on live cores (TEST_P sweeps per the repository's testing policy).
#include <gtest/gtest.h>

#include <tuple>

#include "sim/experiment.hpp"
#include "sim/smt_sim.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob {
namespace {

// ---------------------------------------------------------------------------
// Every SPEC profile must run standalone: commits progress, no wrong-path
// commits, IPC strictly positive, and its DoD samples are within range.
// ---------------------------------------------------------------------------
class EveryBenchmark : public ::testing::TestWithParam<const char*> {};

TEST_P(EveryBenchmark, RunsStandalone) {
  MachineConfig cfg = single_thread_config();
  SmtCore core(cfg, {spec_benchmark(GetParam())});
  const RunResult r = core.run(4000);
  EXPECT_GE(r.threads[0].committed, 4000u);
  EXPECT_GT(r.threads[0].ipc, 0.0);
  EXPECT_EQ(run_counter(r, "core.commit.wrong_path_bug"), 0u);
}

TEST_P(EveryBenchmark, RunsUnderTwoLevelRob) {
  MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);
  cfg.num_threads = 2;
  SmtCore core(cfg, {spec_benchmark(GetParam()), spec_benchmark("crafty")});
  const RunResult r = core.run(4000);
  EXPECT_GT(r.threads[0].committed, 0u);
  EXPECT_GT(r.threads[1].committed, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, EveryBenchmark,
                         ::testing::Values("ammp", "art", "mgrid", "apsi", "swim", "lucas",
                                           "equake", "mcf", "twolf", "vpr", "parser",
                                           "vortex", "gap", "perlbmk", "bzip2", "mesa",
                                           "wupwise", "crafty", "eon", "gzip"));

// ---------------------------------------------------------------------------
// Structural invariants, checked every cycle across schemes and mixes.
// ---------------------------------------------------------------------------
using SchemeCase = std::tuple<RobScheme, u32 /*threshold*/, u32 /*mix*/>;

class SchemeInvariants : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(SchemeInvariants, CycleByCycle) {
  const auto [scheme, threshold, mix] = GetParam();
  MachineConfig cfg = two_level_config(scheme, threshold);
  SmtCore core(cfg, mix_benchmarks(table2_mix(mix)));

  for (int i = 0; i < 30000; ++i) {
    core.tick();
    u32 iq_total = 0;
    u32 grants = 0;
    for (ThreadId t = 0; t < cfg.num_threads; ++t) {
      const ReorderBuffer& rob = core.rob(t);
      // The ROB never exceeds the total entries that exist, and beyond the
      // first level it holds instructions only while it owns the partition
      // (including the revoke-then-drain tail of a lease, where capacity has
      // snapped back but the occupied second-level entries are still
      // draining out).
      if (scheme == RobScheme::kAdaptive) {
        // Private growth bounded by the thread's own physical ROB.
        ASSERT_LE(rob.size(),
                  cfg.rob_first_level + cfg.rob.adaptive_max_extra + cfg.rob.adaptive_step);
        ASSERT_LE(rob.extra(), cfg.rob.adaptive_max_extra);
      } else {
        ASSERT_LE(rob.size(), cfg.rob_first_level + cfg.rob_second_level);
        ASSERT_LE(rob.capacity(), cfg.rob_first_level + cfg.rob_second_level);
        if (rob.size() > cfg.rob_first_level) {
          ASSERT_TRUE(core.second_level().owned_by(t)) << "non-owner overflowed level 1";
        }
        if (rob.extra() > 0) {
          ++grants;
          ASSERT_TRUE(core.second_level().owned_by(t));
          ASSERT_EQ(rob.extra(), cfg.rob_second_level);
          ASSERT_LE(rob.size(), rob.capacity());
        }
      }
      iq_total += core.issue_queue().occupancy(t);
    }
    ASSERT_LE(grants, 1u) << "the second level is an atomic single-owner unit";
    ASSERT_EQ(iq_total, core.issue_queue().occupancy());
    ASSERT_LE(core.issue_queue().occupancy(), cfg.iq_entries);
  }

  const RunResult r = core.snapshot_result();
  // Allocation/release accounting balances (an allocation may be live).
  const u64 alloc = run_counter(r, "rob.allocations");
  const u64 releases =
      run_counter(r, "rob.releases");
  EXPECT_LE(releases, alloc);
  EXPECT_LE(alloc - releases, 1u);
  EXPECT_EQ(run_counter(r, "core.commit.wrong_path_bug"), 0u);
  if (scheme == RobScheme::kBaseline) {
    EXPECT_EQ(alloc, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndMixes, SchemeInvariants,
    ::testing::Values(SchemeCase{RobScheme::kBaseline, 16, 1},
                      SchemeCase{RobScheme::kReactive, 16, 1},
                      SchemeCase{RobScheme::kReactive, 1, 2},
                      SchemeCase{RobScheme::kReactive, 31, 5},
                      SchemeCase{RobScheme::kRelaxedReactive, 15, 1},
                      SchemeCase{RobScheme::kRelaxedReactive, 15, 9},
                      SchemeCase{RobScheme::kCdr, 15, 2},
                      SchemeCase{RobScheme::kCdr, 15, 11},
                      SchemeCase{RobScheme::kPredictive, 3, 1},
                      SchemeCase{RobScheme::kPredictive, 5, 6},
                      SchemeCase{RobScheme::kPredictive, 16, 10},
                      SchemeCase{RobScheme::kAdaptive, 16, 1},
                      SchemeCase{RobScheme::kAdaptive, 16, 8}));

// ---------------------------------------------------------------------------
// Commit-order property: committed instruction counts are monotone and the
// core conserves instructions (fetched >= dispatched >= committed).
// ---------------------------------------------------------------------------
class ConservationCase : public ::testing::TestWithParam<u32 /*mix*/> {};

TEST_P(ConservationCase, InstructionAccounting) {
  SmtCore core(two_level_config(RobScheme::kReactive, 16),
               mix_benchmarks(table2_mix(GetParam())));
  u64 prev[4] = {0, 0, 0, 0};
  for (int i = 0; i < 20000; ++i) {
    core.tick();
    for (ThreadId t = 0; t < 4; ++t) {
      ASSERT_GE(core.committed(t), prev[t]);
      prev[t] = core.committed(t);
    }
  }
  const RunResult r = core.snapshot_result();
  const u64 fetched =
      run_counter(r, "core.fetch.insts") + run_counter(r, "core.fetch.wrong_path");
  EXPECT_GE(fetched, run_counter(r, "core.dispatch.insts") -
                         (run_counter(r, "core.flush.undispatched")));
  EXPECT_GE(run_counter(r, "core.dispatch.insts"), run_counter(r, "core.commit.insts"));
}

INSTANTIATE_TEST_SUITE_P(Mixes, ConservationCase, ::testing::Values(1u, 3u, 7u, 10u));

// ---------------------------------------------------------------------------
// Workload-generator properties over all benchmarks: the architectural
// stream is reproducible for a fixed salt and diverges across salts.
// ---------------------------------------------------------------------------
class StreamProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(StreamProperty, DeterministicPerSalt) {
  const Benchmark& b = spec_benchmark(GetParam());
  ThreadContext a(b, 0x1000000, 42), c(b, 0x1000000, 42);
  for (int i = 0; i < 2000; ++i) {
    const ArchOp x = a.next();
    const ArchOp y = c.next();
    ASSERT_EQ(x.pc, y.pc);
    ASSERT_EQ(x.mem_addr, y.mem_addr);
    ASSERT_EQ(x.taken, y.taken);
  }
}

TEST_P(StreamProperty, ControlFlowStaysInProgram) {
  const Benchmark& b = spec_benchmark(GetParam());
  ThreadContext ctx(b, 0, 7);
  const u32 n = b.program->num_static_insts();
  for (int i = 0; i < 3000; ++i) {
    const ArchOp op = ctx.next();
    ASSERT_GE(op.pc, b.program->code_base());
    ASSERT_LT(op.pc, b.program->code_base() + 4 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, StreamProperty,
                         ::testing::Values("ammp", "art", "mgrid", "apsi", "swim", "lucas",
                                           "equake", "mcf", "twolf", "vpr", "parser",
                                           "vortex", "gap", "perlbmk", "bzip2", "mesa",
                                           "wupwise", "crafty", "eon", "gzip"));

}  // namespace
}  // namespace tlrob

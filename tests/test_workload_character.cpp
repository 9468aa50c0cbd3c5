// Guards on the workload calibration: the properties of the synthetic SPEC
// profiles that the paper's mechanism discriminates on. If a profile change
// breaks one of these, every figure moves — these tests catch it first.
#include <gtest/gtest.h>

#include "runner/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/smt_sim.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob {
namespace {

RunResult run_single(const char* bench, RobScheme scheme, u32 threshold, u64 insts = 40000) {
  MachineConfig cfg = scheme == RobScheme::kBaseline ? baseline32_config()
                                                     : two_level_config(scheme, threshold);
  cfg.num_threads = 1;
  SmtCore core(cfg, {spec_benchmark(bench)});
  return core.run(insts, 0, 20000);
}

/// One campaign cell: Table 2 mix `mix` on `cfg`, 40k instructions after the
/// default 60k warmup, at the machine's own seed.
runner::JobRecord run_cell(const MachineConfig& cfg, u32 mix) {
  runner::JobSpec js;
  js.config = cfg;
  js.seed = cfg.seed;
  js.mix = table2_mix(mix);
  js.insts = 40000;
  js.warmup = kDefaultWarmup;
  return runner::execute_job(js);
}

/// IPC of `bench`'s thread in a cell.
double thread_ipc(const runner::JobRecord& rec, const std::string& bench) {
  for (size_t t = 0; t < rec.benchmarks.size(); ++t)
    if (rec.benchmarks[t] == bench) return rec.mt_ipc[t];
  return 0.0;
}

// Gather- and stream-class benchmarks carry low-DoD long-latency loads: they
// must actually qualify for (and use) the second level.
class LowDodBeneficiary : public ::testing::TestWithParam<const char*> {};

TEST_P(LowDodBeneficiary, QualifiesForSecondLevel) {
  const RunResult r = run_single(GetParam(), RobScheme::kReactive, 16);
  EXPECT_GT(run_counter(r, "rob.allocations"), 0u) << GetParam();
  EXPECT_GT(run_counter(r, "rob2.busy_cycles"), r.cycles / 20) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Gathers, LowDodBeneficiary,
                         ::testing::Values("art", "lucas", "equake", "mgrid", "apsi",
                                           "swim"));

// Pointer-chase benchmarks put (nearly) their whole window behind each miss:
// the DoD filter must reject them most of the time.
class HighDodExcluded : public ::testing::TestWithParam<const char*> {};

TEST_P(HighDodExcluded, MostCandidatesRejected) {
  const RunResult r = run_single(GetParam(), RobScheme::kReactive, 16);
  const u64 rejected = run_counter(r, "rob.rejected_high_dod");
  const u64 granted = run_counter(r, "rob.lease_grants_or_renewals");
  EXPECT_GT(rejected, granted) << GetParam()
                               << ": the chase class should mostly fail the DoD test";
}

INSTANTIATE_TEST_SUITE_P(Chases, HighDodExcluded, ::testing::Values("ammp", "mcf"));

// The miss-service DoD distributions that Figure 1 plots: typical counts are
// small, and the hardware proxy over-approximates the true dependents.
TEST(WorkloadCharacter, GatherDodIsSmallChaseDodIsLarge) {
  const RunResult art = run_single("art", RobScheme::kBaseline, 0);
  const RunResult mcf = run_single("mcf", RobScheme::kBaseline, 0, 20000);
  ASSERT_GT(art.dod_true.total_samples(), 50u);
  ASSERT_GT(mcf.dod_true.total_samples(), 50u);
  // Typical counts are small (the Figure 1 shape)...
  EXPECT_LT(art.dod_true.mean(), 14.0);
  // ...and the hardware proxy over-approximates true dependents. (The
  // scheme-discriminating property — chase candidates failing the threshold
  // where gathers pass — is asserted by the allocation tests above, on the
  // decision-time first-level count rather than these service-time means.)
  EXPECT_GE(art.dod_proxy.mean(), art.dod_true.mean() * 0.8);
  EXPECT_GE(mcf.dod_proxy.mean(), 6.0);
}

// The SMT-contention premise: a gather benchmark with a reuse set runs much
// closer to its solo speed alone than inside a memory-bound mix (shared-L2
// thrash), which is what makes it the thread the mechanism rescues.
TEST(WorkloadCharacter, ReuseSetsThrashUnderSharing) {
  const double st = single_thread_ipc("art", 40000);
  const double art_mt = thread_ipc(run_cell(baseline32_config(), 1), "art");
  EXPECT_LT(art_mt, 0.8 * st) << "art should lose most of its reuse set under sharing";
}

// The Figure 2 headline shapes, at test scale: the reactive two-level design
// must beat Baseline_32 on the memory-bound mixes, and blindly scaling the
// private ROBs to 128 must not.
TEST(WorkloadCharacter, HeadlineShapeOnMemoryBoundMixes) {
  double ft_base = 0, ft_rrob = 0, ft_b128 = 0;
  for (u32 m : {1u, 2u, 3u, 4u}) {
    ft_base += run_cell(baseline32_config(), m).ft;
    ft_rrob += run_cell(two_level_config(RobScheme::kReactive, 16), m).ft;
    ft_b128 += run_cell(baseline128_config(), m).ft;
  }
  EXPECT_GT(ft_rrob, ft_base * 1.05) << "R-ROB16 must clearly beat Baseline_32";
  EXPECT_GT(ft_rrob, ft_b128 * 0.95) << "R-ROB16 must not lose to Baseline_128";
}

// Compute-class threads must stay unharmed by the two-level mechanism (the
// paper's "without adversely impacting other applications" claim).
TEST(WorkloadCharacter, ComputeThreadsNotHurtByTwoLevel) {
  const double crafty_base = thread_ipc(run_cell(baseline32_config(), 5), "crafty");
  const double crafty_rrob =
      thread_ipc(run_cell(two_level_config(RobScheme::kReactive, 16), 5), "crafty");
  EXPECT_GT(crafty_rrob, 0.85 * crafty_base);
}

}  // namespace
}  // namespace tlrob

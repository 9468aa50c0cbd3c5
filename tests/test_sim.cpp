// Integration tests for the SMT core, metrics, presets and experiment
// harness: short end-to-end runs checking the machine's externally visible
// behaviour and the paper's mechanisms working together.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "runner/engine.hpp"
#include "sim/cmp.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/presets.hpp"
#include "sim/smt_sim.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob {
namespace {

TEST(Metrics, WeightedIpcAndFairThroughput) {
  EXPECT_DOUBLE_EQ(weighted_ipc(0.5, 1.0), 0.5);
  EXPECT_THROW(weighted_ipc(0.5, 0.0), std::invalid_argument);
  // Harmonic mean of {1.0, 0.5} = 2/(1+2) = 0.666...
  EXPECT_NEAR(fair_throughput({1.0, 0.5}, {1.0, 1.0}), 2.0 / 3.0, 1e-12);
  // Equal weighted IPCs: FT equals that value.
  EXPECT_NEAR(fair_throughput({0.4, 0.8}, {1.0, 2.0}), 0.4, 1e-12);
  EXPECT_THROW(fair_throughput({}, {}), std::invalid_argument);
  EXPECT_THROW(fair_throughput({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Metrics, FairThroughputPenalisesImbalance) {
  // Same total throughput, one balanced one imbalanced: FT prefers balance.
  const double balanced = fair_throughput({0.5, 0.5}, {1.0, 1.0});
  const double imbalanced = fair_throughput({0.9, 0.1}, {1.0, 1.0});
  EXPECT_GT(balanced, imbalanced);
}

TEST(Presets, Table1Values) {
  const MachineConfig cfg = baseline32_config();
  EXPECT_EQ(cfg.num_threads, 4u);
  EXPECT_EQ(cfg.rob_first_level, 32u);
  EXPECT_EQ(cfg.rob_second_level, 0u);
  EXPECT_EQ(cfg.iq_entries, 64u);
  EXPECT_EQ(cfg.lsq_entries, 48u);
  EXPECT_EQ(cfg.int_regs, 224u);
  EXPECT_EQ(cfg.fp_regs, 224u);
  // 8-wide fetch / issue / commit.
  EXPECT_EQ(cfg.fetch_width, 8u);
  EXPECT_EQ(cfg.issue_width, 8u);
  EXPECT_EQ(cfg.commit_width, 8u);
  // L1I 64KB / 2-way / 64B / 1 cycle; L1D 32KB / 4-way / 32B / 1 cycle;
  // L2 2MB / 8-way / 128B / 10 cycles.
  const MemoryConfig& mem = cfg.memory;
  EXPECT_EQ(mem.l1i.size_bytes, 64u << 10);
  EXPECT_EQ(mem.l1i.ways, 2u);
  EXPECT_EQ(mem.l1i.line_bytes, 64u);
  // The L1I's 1-cycle hit is the fetch cycle itself: a resident line is
  // available the cycle it is probed.
  MemorySystem ms(mem);
  const Cycle fill = ms.access_inst(0x400000, 0);
  EXPECT_EQ(ms.access_inst(0x400000, fill + 7), fill + 7);
  EXPECT_EQ(mem.l1d.size_bytes, 32u << 10);
  EXPECT_EQ(mem.l1d.ways, 4u);
  EXPECT_EQ(mem.l1d.line_bytes, 32u);
  EXPECT_EQ(mem.l1d_hit_latency, 1u);
  EXPECT_EQ(mem.l2.size_bytes, 2u << 20);
  EXPECT_EQ(mem.l2.ways, 8u);
  EXPECT_EQ(mem.l2.line_bytes, 128u);
  EXPECT_EQ(mem.l2_hit_latency, 10u);
  // Memory: 500-cycle first chunk, 2-cycle interchunk, 64-bit bus.
  EXPECT_EQ(mem.channel.first_chunk, 500u);
  EXPECT_EQ(mem.channel.interchunk, 2u);
  EXPECT_EQ(mem.channel.bus_bytes, 8u);
  // 2K-entry gshare with 10-bit history per thread; 2048-entry 2-way BTB.
  EXPECT_EQ(cfg.predictor.gshare_entries, 2048u);
  EXPECT_EQ(cfg.predictor.history_bits, 10u);
  EXPECT_EQ(cfg.predictor.btb_entries, 2048u);
  EXPECT_EQ(cfg.predictor.btb_ways, 2u);
  // 1K-entry load-hit predictor with 8-bit history; DCRA fetch policy.
  EXPECT_EQ(cfg.load_hit_entries, 1024u);
  EXPECT_EQ(cfg.load_hit_history, 8u);
  EXPECT_EQ(cfg.fetch_policy, FetchPolicyKind::kDcra);
  EXPECT_EQ(baseline128_config().rob_first_level, 128u);
  const MachineConfig tl = two_level_config(RobScheme::kCdr, 15);
  EXPECT_EQ(tl.rob.scheme, RobScheme::kCdr);
  EXPECT_EQ(tl.rob.dod_threshold, 15u);
  EXPECT_EQ(tl.rob_second_level, 384u);
  EXPECT_EQ(single_thread_config().num_threads, 1u);
  EXPECT_FALSE(describe(cfg).empty());
}

TEST(SmtCore, RejectsMismatchedBenchmarkCount) {
  MachineConfig cfg = baseline32_config();
  EXPECT_THROW(SmtCore(cfg, {spec_benchmark("art")}), std::invalid_argument);
}

TEST(SmtCore, SingleThreadRunsToCompletion) {
  MachineConfig cfg = single_thread_config();
  SmtCore core(cfg, {spec_benchmark("crafty")});
  const RunResult r = core.run(5000);
  EXPECT_GE(r.threads[0].committed, 5000u);
  EXPECT_GT(r.threads[0].ipc, 0.5);
  EXPECT_EQ(run_counter(r, "core.commit.wrong_path_bug"), 0u);
}

TEST(SmtCore, DeterministicForSameSeed) {
  auto run_once = [] {
    MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);
    SmtCore core(cfg, mix_benchmarks(table2_mix(2)));
    return core.run(5000);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.cycles, b.cycles);
  for (size_t t = 0; t < a.threads.size(); ++t)
    EXPECT_EQ(a.threads[t].committed, b.threads[t].committed);
  EXPECT_EQ(a.counters, b.counters);
}

TEST(SmtCore, SeedChangesTheRun) {
  MachineConfig a = baseline32_config(), b = baseline32_config();
  b.seed = a.seed + 1;
  SmtCore ca(a, mix_benchmarks(table2_mix(2)));
  SmtCore cb(b, mix_benchmarks(table2_mix(2)));
  EXPECT_NE(ca.run(5000).cycles, cb.run(5000).cycles);
}

TEST(SmtCore, FourThreadsAllMakeProgress) {
  SmtCore core(baseline32_config(), mix_benchmarks(table2_mix(5)));
  const RunResult r = core.run(8000);
  for (const auto& t : r.threads) EXPECT_GT(t.committed, 100u) << t.benchmark;
}

// Today's functional warming on Mix 1, pinned: the random regions of every
// thread (a hot prefix, or a whole region up to 1 MiB) in spec order, then
// the stacks of every thread, each region at its thread's placement. The
// regions overflow the L2, so the install order decides what stays resident:
// thread-major order leaves other lines, which the comparison sees.
TEST(FunctionalWarming, Mix1WarmsRandomRegionsThenStacksAcrossThreads) {
  const MachineConfig cfg = baseline32_config();
  const std::vector<Benchmark> mix = mix_benchmarks(table2_mix(1));
  std::vector<AddrRegion> tier_major, thread_major;
  std::vector<std::vector<AddrRegion>> stacks(mix.size());
  for (u32 t = 0; t < mix.size(); ++t) {
    const Addr base = thread_placement(t, cfg.seed).base;
    for (const AddrGenSpec& s : mix[t].agens) {
      if (s.pattern == AddrPattern::kStack) stacks[t].push_back({base + s.base, s.region_bytes});
      if (s.pattern != AddrPattern::kRandom) continue;
      if (s.hot_bytes > 0)
        tier_major.push_back({base + s.base, s.hot_bytes});
      else if (s.region_bytes <= (1 << 20))
        tier_major.push_back({base + s.base, s.region_bytes});
      else
        continue;
      thread_major.push_back(tier_major.back());
    }
    thread_major.insert(thread_major.end(), stacks[t].begin(), stacks[t].end());
  }
  for (const auto& st : stacks) tier_major.insert(tier_major.end(), st.begin(), st.end());
  ASSERT_EQ(tier_major.size(), 8u);

  // Residency of every warmed line in the L1D and the L2 (probing touches
  // only LRU state, alike in every system compared).
  auto resident = [&](MemorySystem& m) {
    std::vector<bool> v;
    for (const AddrRegion& r : tier_major)
      for (Addr a = r.base; a < r.base + r.bytes; a += cfg.memory.l1d.line_bytes) {
        v.push_back(m.l1d().probe(a, 0).present);
        v.push_back(m.l2().probe(a, 0).present);
      }
    return v;
  };
  auto warmed = [&](const std::vector<AddrRegion>& order) {
    MemorySystem m(cfg.memory);
    for (const AddrRegion& r : order) m.prewarm_region(r.base, r.bytes);
    return resident(m);
  };
  SmtCore core(cfg, mix);
  const std::vector<bool> expected = warmed(tier_major);
  EXPECT_EQ(resident(core.memory_for_test()), expected);
  EXPECT_NE(warmed(thread_major), expected);
}

TEST(SmtCore, BaselineNeverTouchesSecondLevel) {
  SmtCore core(baseline32_config(), mix_benchmarks(table2_mix(1)));
  const RunResult r = core.run(8000);
  EXPECT_EQ(run_counter(r, "rob.allocations"), 0u);
  for (ThreadId t = 0; t < 4; ++t) EXPECT_EQ(core.rob(t).capacity(), 32u);
}

TEST(SmtCore, TwoLevelAllocatesOnMemoryBoundMix) {
  SmtCore core(two_level_config(RobScheme::kReactive, 16), mix_benchmarks(table2_mix(1)));
  const RunResult r = core.run(20000);
  EXPECT_GT(run_counter(r, "rob.allocations"), 0u);
  EXPECT_GT(run_counter(r, "rob2.busy_cycles"), 0u);
  u64 grants = 0;
  u64 held = 0;
  for (ThreadId t = 0; t < 4; ++t) {
    grants += run_counter(r, "rob.allocations.t" + std::to_string(t));
    held += run_counter(r, "rob.busy.t" + std::to_string(t));
  }
  EXPECT_EQ(grants, run_counter(r, "rob.allocations"));
  EXPECT_EQ(held, run_counter(r, "rob2.busy_cycles"));
}

// The partition's ledger against a per-cycle observer of each core's owner
// and acquired_at. The machine ticks every cycle (no fast-forward), resets
// at the first cycle past the warmup at which some core's partition is held
// and stops at the first cycle past the target at which one is held. So a
// tenure open across the reset must count as one grant to its holder, held
// from the reset on, and a tenure open at exit as held up to the end.
void expect_ledger_across_reset_and_exit(const MachineConfig& cfg) {
  constexpr u64 kWarmup = 2000;
  constexpr u64 kInsts = 6000;
  std::vector<Benchmark> benches;
  while (benches.size() < static_cast<size_t>(cfg.num_cores) * cfg.num_threads)
    for (Benchmark& b : mix_benchmarks(table2_mix(1))) benches.push_back(std::move(b));
  CmpMachine m(cfg, benches);
  const u32 n = cfg.num_threads;
  std::vector<u64> grants(benches.size()), held(benches.size());
  struct Tenure {
    ThreadId owner = SecondLevelRob::kNoOwner;
    Cycle since = 0;
  };
  std::vector<Tenure> seen(m.num_cores());

  auto any_held = [&] {
    for (u32 c = 0; c < m.num_cores(); ++c)
      if (m.core(c).second_level().owner() != SecondLevelRob::kNoOwner) return true;
    return false;
  };
  auto fastest = [&] {
    u64 best = 0;
    for (u32 c = 0; c < m.num_cores(); ++c) best = std::max(best, m.core(c).fastest_measured());
    return best;
  };
  // Ticks until `insts` commits with a partition held; false past the cap.
  auto run_until = [&](u64 insts) {
    while (fastest() < insts || !any_held()) {
      const Cycle now = m.now();
      if (now > default_cycle_cap(kInsts, kWarmup)) return false;
      for (u32 c = 0; c < m.num_cores(); ++c) {
        m.core(c).tick();
        const SecondLevelRob& s = m.core(c).second_level();
        Tenure& o = seen[c];
        const bool same = o.owner == SecondLevelRob::kNoOwner || s.acquired_at() == o.since;
        if (s.owner() == o.owner && same) continue;  // no tenure ended or began
        if (o.owner != SecondLevelRob::kNoOwner) held[c * n + o.owner] += now - o.since;
        o = {s.owner(), s.acquired_at()};
        if (o.owner != SecondLevelRob::kNoOwner) ++grants[c * n + o.owner];
      }
    }
    return true;
  };

  ASSERT_TRUE(run_until(kWarmup));
  for (u32 c = 0; c < m.num_cores(); ++c) m.core(c).reset_measurement();
  std::ranges::fill(grants, 0);
  std::ranges::fill(held, 0);
  for (u32 c = 0; c < m.num_cores(); ++c) {
    if (seen[c].owner == SecondLevelRob::kNoOwner) continue;
    grants[c * n + seen[c].owner] = 1;
    seen[c].since = m.now();
  }
  ASSERT_TRUE(run_until(kInsts));
  for (u32 c = 0; c < m.num_cores(); ++c)
    if (seen[c].owner != SecondLevelRob::kNoOwner)
      held[c * n + seen[c].owner] += m.now() - seen[c].since;

  const RunResult r = m.snapshot_result();
  u64 total_grants = 0;
  u64 total_held = 0;
  for (size_t t = 0; t < benches.size(); ++t) {
    const std::string id = std::to_string(t);
    EXPECT_EQ(run_counter(r, "rob.allocations.t" + id), grants[t]) << "thread " << id;
    EXPECT_EQ(run_counter(r, "rob.busy.t" + id), held[t]) << "thread " << id;
    total_grants += grants[t];
    total_held += held[t];
  }
  EXPECT_EQ(run_counter(r, "rob.allocations"), total_grants);
  EXPECT_EQ(run_counter(r, "rob2.busy_cycles"), total_held);
}

TEST(SecondLevelLedger, OneCoreHeldAcrossTheResetAndAtExit) {
  expect_ledger_across_reset_and_exit(two_level_config(RobScheme::kReactive, 16));
}

TEST(SecondLevelLedger, TwoCoresHeldAcrossTheResetAndAtExit) {
  expect_ledger_across_reset_and_exit(cmp_config(2, RobScheme::kReactive, 16));
}

TEST(SmtCore, DodHistogramsPopulatedOnMisses) {
  SmtCore core(baseline32_config(), mix_benchmarks(table2_mix(1)));
  const RunResult r = core.run(20000);
  EXPECT_GT(r.dod_true.total_samples(), 0u);
  EXPECT_EQ(r.dod_true.total_samples(), r.dod_proxy.total_samples());
  // The paper's proxy assumes every unexecuted younger instruction depends
  // on the load, so on average it cannot undercount the true dependents.
  EXPECT_GE(r.dod_proxy.mean(), r.dod_true.mean() * 0.9);
}

TEST(SmtCore, MispredictionsAreResolved) {
  MachineConfig cfg = single_thread_config();
  SmtCore core(cfg, {spec_benchmark("parser")});  // branchy
  const RunResult r = core.run(20000);
  EXPECT_GT(run_counter(r, "bpred.branch.cond"), 1000u);
  EXPECT_GT(run_counter(r, "core.branch.mispredicts_resolved"), 0u);
  EXPECT_GT(run_counter(r, "core.fetch.wrong_path"), 0u);
  EXPECT_GT(run_counter(r, "core.squash.insts"), 0u);
}

TEST(SmtCore, CallsAndReturnsPredictViaRas) {
  MachineConfig cfg = single_thread_config();
  SmtCore core(cfg, {spec_benchmark("vortex")});  // call-heavy
  const RunResult r = core.run(20000);
  EXPECT_GT(run_counter(r, "bpred.branch.returns"), 100u);
  // The RAS should predict the overwhelming majority of returns.
  const double ras_mr = static_cast<double>(run_counter(r, "bpred.branch.ras_mispredict")) /
                        static_cast<double>(run_counter(r, "bpred.branch.returns"));
  EXPECT_LT(ras_mr, 0.05);
}

TEST(SmtCore, FlushPolicyUndispatchesOnL2Miss) {
  MachineConfig cfg = baseline32_config();
  cfg.fetch_policy = FetchPolicyKind::kFlush;
  SmtCore core(cfg, mix_benchmarks(table2_mix(1)));
  const RunResult r = core.run(10000);
  EXPECT_GT(run_counter(r, "core.flush.triggered"), 0u);
  EXPECT_GT(run_counter(r, "core.flush.undispatched"), 0u);
  for (const auto& t : r.threads) EXPECT_GT(t.committed, 50u) << t.benchmark;
}

TEST(SmtCore, FlushPolicySurvivesLongRuns) {
  // Regression: un-dispatch used to read LSQ entries after the ROB had
  // destroyed them, corrupting LSQ order hundreds of thousands of cycles in.
  MachineConfig cfg = baseline32_config();
  cfg.fetch_policy = FetchPolicyKind::kFlush;
  SmtCore core(cfg, mix_benchmarks(table2_mix(1)));
  for (int i = 0; i < 120000; ++i) core.tick();
  for (ThreadId t = 0; t < 4; ++t) EXPECT_GT(core.committed(t), 0u);
}

TEST(SmtCore, StallPolicyNeverStarvesAThreadForever) {
  // Regression: a merged secondary miss serviced before its nominal
  // detection time used to leak outstanding_l2 and gate a thread's fetch
  // permanently.
  MachineConfig cfg = baseline32_config();
  cfg.fetch_policy = FetchPolicyKind::kStall;
  SmtCore core(cfg, mix_benchmarks(table2_mix(1)));
  u64 last[4] = {0, 0, 0, 0};
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (int i = 0; i < 50000; ++i) core.tick();
    for (ThreadId t = 0; t < 4; ++t) {
      EXPECT_GT(core.committed(t), last[t]) << "thread " << t << " starved in epoch " << epoch;
      last[t] = core.committed(t);
    }
  }
}

TEST(SmtCore, StallPolicyGatesFetch) {
  MachineConfig cfg = baseline32_config();
  cfg.fetch_policy = FetchPolicyKind::kStall;
  SmtCore core(cfg, mix_benchmarks(table2_mix(1)));
  const RunResult r = core.run(10000);
  EXPECT_GT(run_counter(r, "core.fetch.policy_gated"), 0u);
  // STALL only gates fetch; un-dispatching on a miss is FLUSH's alone.
  EXPECT_EQ(run_counter(r, "core.flush.triggered"), 0u);
  EXPECT_EQ(run_counter(r, "core.flush.undispatched"), 0u);
}

TEST(SmtCore, WarmupExcludedFromStatistics) {
  MachineConfig cfg = single_thread_config();
  SmtCore core(cfg, {spec_benchmark("gzip")});
  const RunResult r = core.run(5000, 0, /*warmup=*/5000);
  EXPECT_GE(r.threads[0].committed, 5000u);
  EXPECT_LT(r.threads[0].committed, 9000u);  // warmup commits not counted
  EXPECT_EQ(run_counter(r, "core.commit.insts"), r.threads[0].committed);
}

TEST(SmtCore, SpeculativeSchedulingReplays) {
  // Memory-bound threads with a load-hit predictor produce some replays.
  SmtCore core(baseline32_config(), mix_benchmarks(table2_mix(1)));
  const RunResult r = core.run(30000);
  EXPECT_GT(run_counter(r, "core.loads.spec_wakeups"), 0u);
}

TEST(Experiment, SingleThreadIpcIsMemoised) {
  const double a = single_thread_ipc("crafty", 4000);
  const double b = single_thread_ipc("crafty", 4000);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 1.0);
}

TEST(Experiment, ExecuteJobProducesConsistentOutcome) {
  runner::JobSpec js;
  js.config = baseline32_config();
  js.seed = js.config.seed;
  js.mix = table2_mix(2);
  js.insts = 6000;
  js.warmup = kDefaultWarmup;
  const runner::JobRecord rec = runner::execute_job(js);
  ASSERT_TRUE(rec.ok()) << rec.error;
  ASSERT_EQ(rec.mt_ipc.size(), 4u);
  ASSERT_EQ(rec.st_ipc.size(), 4u);
  EXPECT_GT(rec.ft, 0.0);
  EXPECT_NEAR(rec.throughput, rec.mt_ipc[0] + rec.mt_ipc[1] + rec.mt_ipc[2] + rec.mt_ipc[3],
              1e-12);
  EXPECT_EQ(rec.benchmarks, table2_mix(2).benchmarks);
}

TEST(Experiment, IlpClassesSeparateAsMeasured) {
  // The Table 2 premise: lows are measurably slower than highs single-thread.
  const double low = single_thread_ipc("mcf", 20000);
  const double high = single_thread_ipc("crafty", 20000);
  EXPECT_LT(low, 0.5);
  EXPECT_GT(high, 2.0);
}

}  // namespace
}  // namespace tlrob

// Property/fuzz tests for the DynInst ring-slab pool and the event wheel.
//
// The hot-path rework replaced heap-backed deques with fixed ring slabs and
// the completion priority queue with a calendar wheel. Both trade allocator
// safety nets for speed: a recycled slot or a dropped wakeup would no longer
// crash — it would silently corrupt architectural state. These tests attack
// that surface from two sides:
//
//   * whole-core fuzz — randomized machine geometries (window, LSQ, IQ,
//     frontend sizes, scheme, thresholds, lease policy) run branchy mixes
//     under a deliberately starved branch predictor so squash storms recycle
//     slots constantly, with the full invariant-audit tier armed to abort on
//     the first recycled in-flight entry or wheel miscount;
//   * wheel-vs-reference model — a tiny-horizon wheel is driven with random
//     schedule/drain interleavings (including past-due and beyond-horizon
//     whens, fast-forward jumps to the next event and drains up to three
//     horizons ahead) and must hand out exactly the multiset of events a
//     reference stable-sorted queue produces, in the same order, while its
//     node pool never outgrows the most events pending at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "hand_traces.hpp"
#include "runner/campaign.hpp"
#include "runner/engine.hpp"
#include "runner/golden.hpp"
#include "runner/presets.hpp"
#include "sim/cmp.hpp"
#include "sim/event_wheel.hpp"
#include "sim/metrics.hpp"
#include "sim/presets.hpp"
#include "sim/smt_sim.hpp"
#include "trace/resolve.hpp"
#include "workload/mixes.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob {
namespace {

class PoolFuzz : public ::testing::TestWithParam<u32 /*seed*/> {};

TEST_P(PoolFuzz, RandomizedGeometrySurvivesSquashStormsUnderFullAudit) {
  std::mt19937 rng(GetParam() * 2654435761u + 1);
  auto pick = [&](u32 lo, u32 hi) { return lo + rng() % (hi - lo + 1); };

  static const RobScheme kSchemes[] = {
      RobScheme::kBaseline,  RobScheme::kReactive, RobScheme::kRelaxedReactive,
      RobScheme::kCdr,       RobScheme::kPredictive, RobScheme::kAdaptive,
  };
  MachineConfig cfg = two_level_config(kSchemes[rng() % 6], pick(4, 32));
  cfg.num_threads = pick(1, 4);
  cfg.rob_first_level = pick(8, 48);
  cfg.rob_second_level = pick(32, 256);
  cfg.lsq_entries = pick(8, 48);
  cfg.iq_entries = pick(16, 64);
  cfg.frontend_buffer = pick(8, 24);
  cfg.rob.recheck_interval = pick(1, 20);
  cfg.rob.lease_limit = pick(200, 4000);
  cfg.rob.lease_cooldown = pick(0, 2500);
  // Starve the predictor so mispredicts — and the squash storms that recycle
  // ring slots mid-flight — happen constantly instead of rarely.
  cfg.predictor.gshare_entries = 16;
  cfg.predictor.history_bits = 4;
  cfg.predictor.btb_entries = 16;
  cfg.audit.level = AuditLevel::kFull;
  cfg.audit.cheap_interval = 1;
  cfg.audit.full_interval = pick(1, 8);
  cfg.audit.abort_on_violation = true;
  cfg.seed = GetParam() * 7919 + 13;

  // Branchy integer codes squash hardest; salt in one memory-bound thread so
  // the second-level machinery engages and its slots churn too.
  static const char* kBranchy[] = {"crafty", "gzip", "twolf", "parser",
                                   "vpr",    "gap",  "perlbmk"};
  std::vector<Benchmark> work;
  work.push_back(spec_benchmark("mcf"));
  for (u32 t = 1; t < cfg.num_threads; ++t)
    work.push_back(spec_benchmark(kBranchy[rng() % 7]));

  SmtCore core(cfg, work);
  EXPECT_NO_THROW(core.run(3000)) << core.auditor().report();
  EXPECT_EQ(core.auditor().total_violations(), 0u) << core.auditor().report();
  EXPECT_GT(core.auditor().checks_executed(), 0u);

  // The storm must actually have stormed, and the wheel must still conserve:
  // every scheduled event either processed or still pending, none twice.
  const RunResult r = core.snapshot_result();
  EXPECT_GT(run_counter(r, "core.squash.insts"), 0u);
  const EventWheel& wheel = core.event_wheel();
  EXPECT_TRUE(wheel.audit_consistent());
  EXPECT_EQ(wheel.scheduled_total(), wheel.processed_total() + wheel.pending());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolFuzz, ::testing::Range(0u, 8u));

// ---------------------------------------------------------------------------
// Wheel vs reference model: exact drain order, no drop, no duplicate.
// ---------------------------------------------------------------------------

struct RefEvent {
  Cycle when;
  u64 order;
};

class WheelFuzz : public ::testing::TestWithParam<u32 /*seed*/> {};

TEST_P(WheelFuzz, MatchesStableSortedReferenceQueue) {
  std::mt19937 rng(GetParam() ^ 0x9e3779b9u);
  // Tiny horizon (16 cycles) with whens up to now+40: most events take the
  // overflow path and must migrate back in without losing FIFO order.
  EventWheel wheel(/*horizon_log2=*/4);
  std::vector<RefEvent> ref;
  u64 order = 0;
  Cycle drained = 0;  // reference mirror of wheel.drained_until()
  u64 peak_pending = 0;

  for (int step = 0; step < 500; ++step) {
    const u32 pushes = rng() % 4;
    for (u32 i = 0; i < pushes; ++i) {
      // Includes already-due whens (clamped to the cursor, like the wheel).
      Cycle when = drained + rng() % 41;
      if (rng() % 8 == 0 && drained > 0) when = drained - 1;
      wheel.schedule(when, EvKind::kWake, InstRef{.tseq = order});
      ref.push_back({std::max(when, drained), order});
      ++order;
      peak_pending = std::max(peak_pending, wheel.pending());
    }

    // Mostly a tick or a short hop; sometimes a fast-forward-style jump to
    // the next event, sometimes a drain up to three horizons ahead (the jump
    // that must not strand overflow events).
    Cycle now = drained + rng() % 6;
    const u32 mode = rng() % 8;
    if (mode == 0) {
      const Cycle next = wheel.next_event_or(kNeverCycle);
      if (next != kNeverCycle) now = next;
    } else if (mode == 1) {
      now = drained + rng() % (3 * wheel.horizon());
    }
    // Reference drain: stable order is ascending when, then schedule order.
    std::vector<RefEvent> expect;
    for (const RefEvent& e : ref)
      if (e.when <= now) expect.push_back(e);
    std::stable_sort(expect.begin(), expect.end(), [](const RefEvent& a, const RefEvent& b) {
      return a.when != b.when ? a.when < b.when : a.order < b.order;
    });
    std::erase_if(ref, [&](const RefEvent& e) { return e.when <= now; });

    // next_event_or must agree with the reference minimum before draining.
    Cycle ref_next = kNeverCycle;
    for (const RefEvent& e : ref) ref_next = std::min(ref_next, e.when);
    for (const RefEvent& e : expect) ref_next = std::min(ref_next, e.when);
    ASSERT_EQ(wheel.next_event_or(kNeverCycle), ref_next);

    std::vector<u64> got;
    wheel.process_due(now, [&](const SimEvent& ev) {
      ASSERT_LE(ev.when, now);
      got.push_back(ev.ref.tseq);  // tseq carries the schedule order
    });
    ASSERT_EQ(got.size(), expect.size());
    for (u32 i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], expect[i].order);

    drained = now + 1;
    ASSERT_EQ(wheel.drained_until(), drained);
    ASSERT_TRUE(wheel.audit_consistent());
    ASSERT_EQ(wheel.pending(), ref.size());
    ASSERT_LE(wheel.pooled(), peak_pending);
  }
  ASSERT_EQ(wheel.scheduled_total(), wheel.processed_total() + wheel.pending());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WheelFuzz, ::testing::Range(0u, 8u));

// A handler that schedules while its cycle is still draining: a same-cycle
// schedule appends to the very chain being drained, and a schedule that
// finds the free list empty grows (and may reallocate) the node pool under
// the drain loop's feet. The wheel must survive the growth and still deliver
// the appended events this cycle, exactly as the priority queue's
// while-top-due loop did.
TEST(WheelFuzz, HandlerSchedulingDuringDrainIsSafe) {
  EventWheel wheel(4);
  for (u64 i = 0; i < 12; ++i) wheel.schedule(5, EvKind::kWake, InstRef{.tseq = i});
  u32 fired_now = 0;
  wheel.process_due(5, [&](const SimEvent& ev) {
    ++fired_now;
    if (ev.ref.tid == 0 && ev.ref.tseq < 8) {
      wheel.schedule(5, EvKind::kWake, InstRef{.tseq = ev.ref.tseq, .tid = 1});
      wheel.schedule(6, EvKind::kWake, InstRef{.tseq = ev.ref.tseq, .tid = 2});
    }
  });
  EXPECT_EQ(fired_now, 20u);  // 12 initial + 8 scheduled mid-drain at cycle 5
  EXPECT_EQ(wheel.pending(), 8u);  // the cycle-6 events
  u32 fired_later = 0;
  wheel.process_due(6, [&](const SimEvent&) { ++fired_later; });
  EXPECT_EQ(fired_later, 8u);
  EXPECT_TRUE(wheel.audit_consistent());
  EXPECT_EQ(wheel.pending(), 0u);
}

// The pool's footprint bound: a million events through a steady population
// of a few dozen pending (same-cycle, in-horizon and beyond-horizon whens,
// a quarter of the handlers scheduling a follow-up) must never leave the
// pool holding more nodes than the most events pending at any moment.
TEST(WheelFuzz, PoolNeverOutgrowsPeakPending) {
  std::mt19937 rng(0x5eedu);
  EventWheel wheel(/*horizon_log2=*/6);
  u64 peak_pending = 0;
  // 1 in 5 same-cycle, 1 in 50 past the horizon, the rest inside it.
  auto delay = [&]() -> Cycle {
    const u32 roll = rng() % 50;
    if (roll == 0) return wheel.horizon() + rng() % (2 * wheel.horizon());
    if (roll < 10) return 0;
    return 1 + rng() % (wheel.horizon() - 1);
  };
  auto schedule = [&](Cycle now) {
    wheel.schedule(now + delay(), EvKind::kWake, InstRef{});
    peak_pending = std::max(peak_pending, wheel.pending());
  };

  // One live event that reschedules itself from its handler, alternately in
  // the same cycle and the next: its node is free again before the handler
  // runs, so the pool stays at one node.
  wheel.schedule(0, EvKind::kWake, InstRef{});
  for (Cycle now = 0; now < 100; ++now) {
    wheel.process_due(now, [&](const SimEvent& ev) {
      const u64 hop = ev.ref.tseq + 1;  // odd hops stay in this cycle
      if (hop < 200)
        wheel.schedule(hop % 2 == 1 ? now : now + 1, EvKind::kWake, InstRef{.tseq = hop});
    });
  }
  ASSERT_EQ(wheel.processed_total(), 200u);
  ASSERT_EQ(wheel.pooled(), 1u);
  peak_pending = 1;

  Cycle last_fired = 0;
  for (Cycle now = 100; wheel.scheduled_total() < 1'000'000; ++now) {
    for (u32 i = rng() % 3; i > 0; --i) schedule(now);
    wheel.process_due(now, [&](const SimEvent& ev) {
      ASSERT_LE(ev.when, now);
      ASSERT_GE(ev.when, last_fired);
      last_fired = ev.when;
      if (rng() % 4 == 0) schedule(now);
    });
    ASSERT_LE(wheel.pooled(), peak_pending) << "cycle " << now;
    if (now % 4096 == 0) {
      ASSERT_TRUE(wheel.audit_consistent()) << "cycle " << now;
    }
  }
  EXPECT_GT(wheel.overflowed_total(), 10'000u);
  EXPECT_LT(peak_pending, 200u);  // a steady population, not a backlog
  EXPECT_TRUE(wheel.audit_consistent());
  EXPECT_EQ(wheel.scheduled_total(), wheel.processed_total() + wheel.pending());
}

// A drain that jumps more than a horizon ahead must deliver the overflow
// events it passes: one left behind the cursor never fires, stays pending,
// and makes next_event_or() report a cycle that has already passed.
TEST(WheelFuzz, LongJumpDeliversOverflowEvents) {
  EventWheel wheel(4);
  wheel.schedule(100, EvKind::kWake, InstRef{});
  EXPECT_EQ(wheel.overflowed_total(), 1u);
  u32 fired = 0;
  wheel.process_due(wheel.next_event_or(kNeverCycle), [&](const SimEvent& ev) {
    EXPECT_EQ(ev.when, 100u);
    ++fired;
  });
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_EQ(wheel.drained_until(), 101u);
  EXPECT_EQ(wheel.next_event_or(kNeverCycle), kNeverCycle);
  EXPECT_TRUE(wheel.audit_consistent());
}

// ---------------------------------------------------------------------------
// CMP fuzz: randomized multi-core geometries under the full audit tier.
// ---------------------------------------------------------------------------
//
// The lockstep engine adds two failure surfaces the single-core fuzz cannot
// reach: the per-core idle fast-forward (a core sleeps while its peers run,
// and the replay must keep per-core stall counters exact) and
// the shared LLC/MSHR/DRAM bookkeeping that every core mutates in arrival
// order. Squash storms on several cores at once churn both.

class CmpFuzz : public ::testing::TestWithParam<u32 /*seed*/> {};

TEST_P(CmpFuzz, RandomizedCmpGeometrySurvivesSquashStormsUnderFullAudit) {
  std::mt19937 rng(GetParam() * 0x85EBCA6Bu + 7);
  auto pick = [&](u32 lo, u32 hi) { return lo + rng() % (hi - lo + 1); };

  static const RobScheme kSchemes[] = {RobScheme::kBaseline, RobScheme::kReactive,
                                       RobScheme::kPredictive};
  MachineConfig cfg = cmp_config(pick(2, 4), kSchemes[rng() % 3], pick(4, 24));
  cfg.num_threads = pick(1, 3);
  cfg.rob_first_level = pick(8, 48);
  cfg.lsq_entries = pick(8, 48);
  cfg.iq_entries = pick(16, 64);
  // A small thrash-prone LLC and few MSHRs so cross-core eviction, merge,
  // and pool-full paths all fire at fuzz run lengths.
  cfg.llc.geo = CacheGeometry{u64{1} << pick(13, 15), 1u << pick(1, 3), 128};
  cfg.llc.hit_latency = static_cast<u32>(pick(16, 32));
  cfg.llc.mshr_entries = pick(2, 8);
  cfg.dram.channels = 1u << pick(0, 2);
  cfg.dram.banks_per_channel = 1u << pick(1, 3);
  cfg.dram.open_page = (rng() & 1) != 0;
  cfg.predictor.gshare_entries = 16;
  cfg.predictor.history_bits = 4;
  cfg.predictor.btb_entries = 16;
  cfg.audit.level = AuditLevel::kFull;
  cfg.audit.cheap_interval = 1;
  cfg.audit.full_interval = pick(1, 8);
  cfg.audit.abort_on_violation = true;
  cfg.seed = GetParam() * 6271 + 29;

  static const char* kBranchy[] = {"crafty", "gzip", "twolf", "parser",
                                   "vpr",    "gap",  "perlbmk"};
  // Core 0 thread 0 is memory-bound (shared-backend churn); every other
  // thread is branchy so squash storms fire even at 1 thread per core.
  std::vector<Benchmark> work;
  for (u32 c = 0; c < cfg.num_cores; ++c)
    for (u32 t = 0; t < cfg.num_threads; ++t)
      work.push_back(c == 0 && t == 0 ? spec_benchmark("mcf")
                                      : spec_benchmark(kBranchy[rng() % 7]));

  CmpMachine machine(cfg, work);
  EXPECT_NO_THROW(machine.run(2000));
  u64 squashes = 0;
  for (u32 c = 0; c < machine.num_cores(); ++c) {
    EXPECT_EQ(machine.core(c).auditor().total_violations(), 0u)
        << "core " << c << ": " << machine.core(c).auditor().report();
    EXPECT_GT(machine.core(c).auditor().checks_executed(), 0u);
  }
  const RunResult r = machine.snapshot_result();
  squashes = run_counter(r, "core.squash.insts");
  EXPECT_GT(squashes, 0u);
  // The shared backend saw traffic and still satisfies its own invariants.
  ASSERT_NE(machine.shared_memory(), nullptr);
  EXPECT_GT(run_counter(r, "llc.accesses"), 0u);
  EXPECT_EQ(machine.shared_memory()->audit_check(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CmpFuzz, ::testing::Range(0u, 6u));

// ---------------------------------------------------------------------------
// Differential: SmtCore::run IS a 1-core CmpMachine::run.
// ---------------------------------------------------------------------------
//
// Both drive run_lockstep. The campaign runner builds a CmpMachine for every
// cell while perfbench runs single-core cells on a bare SmtCore, so the two
// must agree exactly on every single-core cell of every preset: cycles,
// every counter, per-thread commits. Cells are stride-sampled (<=3 per
// preset) to keep the suite fast; the golden suite pins the results.

TEST(CmpDifferential, SmtCoreRunMatchesOneCoreMachineOnEveryPreset) {
  using runner::JobSpec;
  for (const std::string& preset : runner::preset_names()) {
    runner::CampaignSpec spec = runner::preset_campaign(preset, runner::golden_run_length());
    std::vector<JobSpec> jobs = runner::expand(spec);
    std::erase_if(jobs, [](const JobSpec& j) { return j.config.has_shared_backend(); });
    const size_t stride = jobs.size() <= 3 ? 1 : jobs.size() / 3;
    u32 compared = 0;
    for (size_t i = 0; i < jobs.size() && compared < 3; i += stride, ++compared) {
      const JobSpec& js = jobs[i];
      MachineConfig cfg = js.config;
      cfg.seed = js.seed;
      const std::vector<Benchmark> benches = trace::resolve_mix_benchmarks(js.mix);
      SmtCore core(cfg, benches);
      const RunResult a = core.run(js.insts, js.max_cycles, js.warmup);
      CmpMachine machine(cfg, benches);
      const RunResult b = machine.run(js.insts, js.max_cycles, js.warmup);

      const std::string where = preset + " cell " + std::to_string(i) + " (" + js.config_name +
                                " / " + js.mix.name + ")";
      EXPECT_EQ(a.cycles, b.cycles) << where;
      EXPECT_EQ(a.counters, b.counters) << where;
      ASSERT_EQ(a.threads.size(), b.threads.size()) << where;
      for (size_t t = 0; t < a.threads.size(); ++t) {
        EXPECT_EQ(a.threads[t].benchmark, b.threads[t].benchmark) << where;
        EXPECT_EQ(a.threads[t].committed, b.threads[t].committed) << where << " thread " << t;
      }
      EXPECT_EQ(core.executed_cycles(), machine.executed_cycles()) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: idle fast-forward changes nothing but the skipped-cycle count.
// ---------------------------------------------------------------------------
//
// The run loop lets each idle core sleep and replays the per-cycle counters
// across its skipped cycles (SmtCore::replay_idle_to). Every cell runs
// through CmpMachine twice, once fast-forwarding and once pinned to
// cycle-by-cycle execution through core 0's pin_for_test(); cycles, commits,
// both DoD histograms, the sample series, the stall taxonomy and every
// counter except core.fast_forwarded_cycles and audit.checks_run must agree.
// An armed audit ($TLROB_AUDIT) runs in both: the fast-forward audits each
// skipped span once per tier, so only its check count differs.

/// Returns the fast-forwarded run's result, every counter included.
RunResult expect_fast_forward_matches_pinned(const MachineConfig& cfg,
                                             const std::vector<Benchmark>& benches, u64 insts,
                                             u64 max_cycles, u64 warmup,
                                             const std::string& where) {
  CmpMachine ff(cfg, benches);
  RunResult a = ff.run(insts, max_cycles, warmup);
  CmpMachine pinned(cfg, benches);
  pinned.core(0).pin_for_test();
  RunResult b = pinned.run(insts, max_cycles, warmup);

  EXPECT_GT(ff.core(0).fast_forwarded_cycles(), 0u) << where;
  EXPECT_EQ(pinned.core(0).fast_forwarded_cycles(), 0u) << where;
  EXPECT_LE(run_counter(a, "core.fast_forwarded_cycles"), a.cycles * cfg.num_cores) << where;
  EXPECT_EQ(run_counter(b, "core.fast_forwarded_cycles"), 0u) << where;
  EXPECT_EQ(a.cycles, b.cycles) << where;
  EXPECT_EQ(a.threads.size(), b.threads.size()) << where;
  for (size_t t = 0; t < std::min(a.threads.size(), b.threads.size()); ++t)
    EXPECT_EQ(a.threads[t].committed, b.threads[t].committed) << where << " thread " << t;
  EXPECT_EQ(a.dod_true, b.dod_true) << where;
  EXPECT_EQ(a.dod_proxy, b.dod_proxy) << where;
  EXPECT_EQ(a.samples, b.samples) << where;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << where;
  EXPECT_EQ(run_counter(a, "rob.rejected_high_dod"), run_counter(b, "rob.rejected_high_dod"))
      << where;
  auto same_a = a.counters, same_b = b.counters;
  for (const char* differs : {"core.fast_forwarded_cycles", "audit.checks_run"}) {
    same_a.erase(differs);
    same_b.erase(differs);
  }
  EXPECT_EQ(same_a, same_b) << where;
  return a;
}

TEST(FastForwardDifferential, SampledCellsOfEveryPreset) {
  using runner::JobSpec;
  for (const std::string& preset : runner::preset_names()) {
    const std::vector<JobSpec> jobs =
        runner::expand(runner::preset_campaign(preset, runner::golden_run_length()));
    const size_t stride = jobs.size() <= 3 ? 1 : jobs.size() / 3;
    u32 compared = 0;
    for (size_t i = 0; i < jobs.size() && compared < 3; i += stride, ++compared) {
      const JobSpec& js = jobs[i];
      MachineConfig cfg = js.config;
      cfg.seed = js.seed;
      expect_fast_forward_matches_pinned(cfg, trace::resolve_mix_benchmarks(js.mix), js.insts,
                                         js.max_cycles, js.warmup,
                                         preset + " cell " + std::to_string(i) + " (" +
                                             js.config_name + " / " + js.mix.name + ")");
    }
  }
}

TEST(FastForwardDifferential, ShortLeasesOnEveryReactiveAndPredictiveScheme) {
  // A 200-cycle lease and a 100-cycle cooldown make the controller's time
  // gates (lease expiry, re-acquisition after cooldown) fire inside the run.
  const std::pair<RobScheme, u32> schemes[] = {{RobScheme::kReactive, 16},
                                               {RobScheme::kRelaxedReactive, 15},
                                               {RobScheme::kCdr, 15},
                                               {RobScheme::kPredictive, 5}};
  const runner::RunLengthSpec len = runner::golden_run_length();
  for (const auto& [scheme, threshold] : schemes) {
    MachineConfig cfg = two_level_config(scheme, threshold);
    cfg.rob.lease_limit = 200;
    cfg.rob.lease_cooldown = 100;
    expect_fast_forward_matches_pinned(cfg, mix_benchmarks(table2_mix(1)), len.insts, 0,
                                       len.warmup, rob_scheme_name(scheme));
  }
}

// The fast-forward replays a reactive candidate's re-checks while the core is
// quiet, until its thread's cooldown ends or its lease expires. Short leases
// and cooldowns put both gates inside the run on every cell below, and each
// cell must also reach high-DoD rejections, the counter the replay adds to.
// The runs are longer than the golden length: a replay that measured a gate
// from the fast-forward's start instead of from the candidate's last
// evaluation first drifts the CMP and CDR cells at this length.
constexpr u64 kGateInsts = 20000;
constexpr u64 kGateWarmup = 5000;

TEST(FastForwardDifferential, ShortLeasesOnRRobCmp) {
  for (const u32 cores : {2u, 4u}) {
    MachineConfig cfg = cmp_config(cores, RobScheme::kReactive, 16);
    cfg.rob.lease_limit = 200;
    cfg.rob.lease_cooldown = 100;
    std::vector<Benchmark> benches;  // core c runs Table 2 mix c + 1
    for (u32 m = 1; m <= cores; ++m)
      for (Benchmark& b : mix_benchmarks(table2_mix(m))) benches.push_back(std::move(b));
    const std::string where = "CMP" + std::to_string(cores) + "-R-ROB16";
    const RunResult r =
        expect_fast_forward_matches_pinned(cfg, benches, kGateInsts, 0, kGateWarmup, where);
    EXPECT_GT(run_counter(r, "rob.rejected_high_dod"), 0u) << where;
  }
}

// R-ROB with threshold 1 never grants (that needs a DoD of 0), so it is the
// Baseline_32 machine plus a controller that rejects every re-check. A
// re-check that repeats its recorded outcome must not wake the core: on
// every Table 2 mix the run executes at most 1 % more core ticks than
// Baseline_32 (the parent's polled re-checks cost 16 % on Mix 1 at this
// length) and every counter but the controller's and the skip count agrees.
TEST(FastForwardDifferential, NeverGrantingRRobTicksLikeBaseline) {
  for (u32 m = 1; m <= table2_mixes().size(); ++m) {
    const std::vector<Benchmark> benches = mix_benchmarks(table2_mix(m));
    SmtCore base(baseline32_config(), benches);
    RunResult b = base.run(kGateInsts, 0, kGateWarmup);
    SmtCore rrob(two_level_config(RobScheme::kReactive, 1), benches);
    RunResult r = rrob.run(kGateInsts, 0, kGateWarmup);
    const std::string where = "Mix " + std::to_string(m);

    EXPECT_EQ(run_counter(r, "rob.allocations"), 0u) << where;
    EXPECT_GT(run_counter(r, "rob.rejected_high_dod"), 0u) << where;
    EXPECT_LE(rrob.executed_cycles() * 100, base.executed_cycles() * 101)
        << where << ": " << rrob.executed_cycles() << " ticks against "
        << base.executed_cycles();
    EXPECT_EQ(r.cycles, b.cycles) << where;
    for (size_t t = 0; t < r.threads.size(); ++t)
      EXPECT_EQ(r.threads[t].committed, b.threads[t].committed) << where << " thread " << t;
    for (auto* counters : {&r.counters, &b.counters})
      std::erase_if(*counters, [](const auto& kv) {
        return kv.first.starts_with("rob.") || kv.first == "core.fast_forwarded_cycles" ||
               kv.first == "audit.checks_run";
      });
    EXPECT_EQ(r.counters, b.counters) << where;
  }
}

// Per-core sleep meets every cross-core read at once on a 4-core R-ROB16
// CMP: the warmup reset (it moves the partition holder's lease clock, so
// every core must tick the first measured cycle), sample points (a sleeping
// core takes its sample in its own slot, where peers have changed the shared
// MSHR pool, and its replay is split there) and short leases (controller
// gates fall inside the sleeps). An audit runs too, and the sampled run must
// count exactly the checks of the unsampled one: a sample point never splits
// an audited span.
TEST(FastForwardDifferential, SampledWarmupShortLeasesOnRRobCmp4) {
  MachineConfig cfg = cmp_config(4, RobScheme::kReactive, 16);
  cfg.rob.lease_limit = 200;
  cfg.rob.lease_cooldown = 100;
  if (cfg.audit.level == AuditLevel::kOff) cfg.audit.level = AuditLevel::kCheap;
  std::vector<Benchmark> benches;  // core c runs Table 2 mix c + 1
  for (u32 m = 1; m <= 4; ++m)
    for (Benchmark& b : mix_benchmarks(table2_mix(m))) benches.push_back(std::move(b));

  CmpMachine unsampled(cfg, benches);
  const RunResult plain = unsampled.run(kGateInsts, 0, kGateWarmup);
  cfg.telemetry.sample_interval = 97;
  const RunResult r = expect_fast_forward_matches_pinned(cfg, benches, kGateInsts, 0, kGateWarmup,
                                                         "CMP4-R-ROB16 sample=97");
  EXPECT_FALSE(r.samples.empty());
  EXPECT_GT(run_counter(r, "rob.rejected_high_dod"), 0u);
  EXPECT_EQ(run_counter(r, "audit.violations"), 0u);
  EXPECT_EQ(r.counters, plain.counters);
}

// Store-to-load forwarding (SmtCore::issue_load's LSQ path) on a hand-made
// trace, since no shipped workload forwards: the forwarded loads run under a
// full audit, and the fast-forwarded run matches the pinned one.
TEST(FastForwardDifferential, StoreToLoadForwardingTrace) {
  MachineConfig cfg = single_thread_config();
  cfg.audit.level = AuditLevel::kFull;
  const RunResult r = expect_fast_forward_matches_pinned(
      cfg, {hand_traces::store_then_load()}, 4000, 0, 1000, "store_then_load");
  EXPECT_GT(run_counter(r, "core.lsq.forwards"), 0u);
  EXPECT_EQ(run_counter(r, "audit.violations"), 0u);
}

// Each core sleeps on its own: beside a compute-bound core, a memory-bound
// core skips most of its cycles. The machine-wide skip, driven here through
// the same SmtCore hooks, ticks every core while any core is busy; it must
// reach the same result with more core ticks.
TEST(FastForwardDifferential, IdleCoreSleepsWhileItsPeerRuns) {
  const MachineConfig cfg = cmp_config(2, RobScheme::kReactive, 16);
  std::vector<Benchmark> benches = mix_benchmarks(table2_mix(1));
  for (Benchmark& b : mix_benchmarks(Mix{"ILP", {"crafty", "eon", "gzip", "vortex"}, ""}))
    benches.push_back(std::move(b));
  constexpr u64 kInsts = 10000;

  CmpMachine per_core(cfg, benches);
  RunResult a = per_core.run(kInsts);

  CmpMachine global(cfg, benches);
  const Cycle cap = default_cycle_cap(kInsts, 0);
  auto fastest = [&] {
    return std::max(global.core(0).fastest_measured(), global.core(1).fastest_measured());
  };
  while (global.now() < cap && fastest() < kInsts) {
    bool any = false;
    for (u32 c = 0; c < global.num_cores(); ++c) any = global.core(c).tick() || any;
    if (any) continue;
    Cycle wake = cap;
    for (u32 c = 0; c < global.num_cores(); ++c)
      wake = std::min(wake, global.core(c).idle_wake(cap));
    if (wake <= global.now()) continue;
    for (u32 c = 0; c < global.num_cores(); ++c) global.core(c).replay_idle_to(wake);
  }
  RunResult b = global.snapshot_result();

  const u64 memory_bound = per_core.core(0).executed_cycles();
  const u64 compute = per_core.core(1).executed_cycles();
  EXPECT_LT(memory_bound, compute);
  EXPECT_LT(per_core.executed_cycles(), global.executed_cycles());
  EXPECT_EQ(a.cycles, b.cycles);
  for (const char* differs : {"core.fast_forwarded_cycles", "audit.checks_run"}) {
    a.counters.erase(differs);
    b.counters.erase(differs);
  }
  EXPECT_EQ(a.counters, b.counters);
}

TEST(FastForwardDifferential, ShortLeasesOnMix3RelaxedAndCdr) {
  for (const RobScheme scheme : {RobScheme::kRelaxedReactive, RobScheme::kCdr}) {
    MachineConfig cfg = two_level_config(scheme, 15);
    cfg.rob.lease_limit = 200;
    cfg.rob.lease_cooldown = 100;
    const RunResult r = expect_fast_forward_matches_pinned(
        cfg, mix_benchmarks(table2_mix(3)), kGateInsts, 0, kGateWarmup, rob_scheme_name(scheme));
    EXPECT_GT(run_counter(r, "rob.rejected_high_dod"), 0u) << rob_scheme_name(scheme);
  }
}

}  // namespace
}  // namespace tlrob

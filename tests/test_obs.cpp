// Observability subsystem (src/obs) tests: the interval sampler's
// fast-forward-equivalence and zero-impact contracts, Chrome trace-event
// export (grant lifecycles, miss shadows), the summary-counter flattening,
// and the host self-profiler.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "obs/chrome_trace.hpp"
#include "obs/interval_sampler.hpp"
#include "obs/self_profile.hpp"
#include "obs/telemetry_config.hpp"
#include "sim/experiment.hpp"
#include "sim/smt_sim.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob {
namespace {

MachineConfig sampled_config(Cycle interval) {
  MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);
  cfg.telemetry.sample_interval = interval;
  return cfg;
}

// The determinism contract at the heart of the design: the series recorded
// with idle-cycle fast-forwarding active (skipped sample points replayed
// from the quiescent state) is bit-identical to the series recorded while
// the core is pinned to cycle-by-cycle execution.
TEST(IntervalSampler, SeriesIdenticalWithAndWithoutFastForward) {
  const auto benches = mix_benchmarks(table2_mix(2));

  SmtCore ff(sampled_config(250), benches);
  const RunResult with_ff = ff.run(4000);

  SmtCore pinned(sampled_config(250), benches);
  pinned.pin_for_test();
  const RunResult without_ff = pinned.run(4000);

  // The comparison is only meaningful if the first run actually skipped
  // cycles and the pinned one did not.
  EXPECT_GT(ff.fast_forwarded_cycles(), 0u);
  EXPECT_EQ(pinned.fast_forwarded_cycles(), 0u);

  EXPECT_EQ(with_ff.cycles, without_ff.cycles);
  ASSERT_FALSE(with_ff.samples.empty());
  EXPECT_EQ(with_ff.samples, without_ff.samples);
}

// Turning the sampler on must not perturb the simulated machine: cycles,
// committed counts and every architectural counter stay bit-identical to a
// telemetry-off run (the golden-record contract from the other side).
TEST(IntervalSampler, SamplingDoesNotPerturbTheRun) {
  const auto benches = mix_benchmarks(table2_mix(1));

  SmtCore off(sampled_config(0), benches);
  const RunResult r_off = off.run(4000);

  SmtCore on(sampled_config(200), benches);
  const RunResult r_on = on.run(4000);

  EXPECT_EQ(r_off.cycles, r_on.cycles);
  EXPECT_EQ(r_off.counters, r_on.counters);
  for (size_t t = 0; t < r_off.threads.size(); ++t)
    EXPECT_EQ(r_off.threads[t].committed, r_on.threads[t].committed);
  EXPECT_TRUE(r_off.samples.empty());
  EXPECT_FALSE(r_on.samples.empty());
}

// Sample labels sit on absolute interval multiples, strictly increase, and
// every sample carries one slice per hardware thread.
TEST(IntervalSampler, LabelsAlignToTheIntervalGrid) {
  const auto benches = mix_benchmarks(table2_mix(1));
  SmtCore core(sampled_config(300), benches);
  const RunResult r = core.run(3000, 0, /*warmup=*/1000);

  ASSERT_FALSE(r.samples.empty());
  EXPECT_EQ(r.samples.interval(), 300u);
  Cycle prev = 0;
  for (const auto& s : r.samples.samples()) {
    EXPECT_EQ(s.cycle % 300, 0u);
    EXPECT_GT(s.cycle, prev);
    prev = s.cycle;
    EXPECT_EQ(s.threads.size(), benches.size());
  }
}

TEST(IntervalSampler, JsonlExportShape) {
  obs::IntervalSeries series(100);
  obs::IntervalSample s;
  s.cycle = 100;
  s.second_level_owner = 1;
  s.iq_occ_total = 12;
  s.threads.push_back({.rob_occ = 3,
                       .rob_cap = 32,
                       .iq_occ = 2,
                       .lsq_occ = 1,
                       .dod_proxy = 4,
                       .outstanding_l2 = 2,
                       .committed = 50});
  series.add(std::move(s));

  std::ostringstream jsonl;
  series.write_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("\"cycle\":100"), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"owner\":1"), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"rob\":3"), std::string::npos);
  EXPECT_EQ(jsonl.str().back(), '\n');

  // An unowned second level serialises as null.
  obs::IntervalSeries unowned(100);
  obs::IntervalSample u;
  u.cycle = 200;
  u.threads.emplace_back();
  unowned.add(std::move(u));
  std::ostringstream j2;
  unowned.write_jsonl(j2);
  EXPECT_NE(j2.str().find("\"owner\":null"), std::string::npos);
}

TEST(IntervalSampler, SummaryCountersFlattenPercentiles) {
  obs::IntervalSeries series(100);
  for (u32 i = 1; i <= 10; ++i) {
    obs::IntervalSample s;
    s.cycle = 100 * i;
    s.threads.push_back({.rob_occ = i, .rob_cap = 32, .outstanding_l2 = 1});
    series.add(std::move(s));
  }
  const auto counters = obs::series_summary_counters(series);
  ASSERT_NE(counters.find("obs.samples"), counters.end());
  EXPECT_EQ(counters.at("obs.samples"), 10u);
  EXPECT_EQ(counters.at("obs.sample_interval"), 100u);
  EXPECT_EQ(counters.at("obs.t0.rob_occ_p50"), 5u);
  EXPECT_EQ(counters.at("obs.t0.rob_occ_p90"), 9u);
  EXPECT_EQ(counters.at("obs.t0.mlp_p90"), 1u);

  // Empty series -> no keys at all (disabled telemetry adds nothing to
  // campaign records).
  EXPECT_TRUE(obs::series_summary_counters(obs::IntervalSeries{}).empty());
}

TEST(ChromeTrace, WriterEmitsWellFormedEvents) {
  obs::ChromeTraceWriter w;
  w.set_thread_name(0, "t0 art");
  w.complete_event(0, "second_level_grant", 100, 250, {{"trigger_tseq", 7}});
  w.instant_event(0, "squash", 120, {{"insts", 3}});
  w.counter_event(0, "rob_occ", 100, 17);
  EXPECT_EQ(w.event_count(), 4u);
  EXPECT_EQ(w.count_named('X', "second_level_grant"), 1u);
  EXPECT_EQ(w.count_named('i', "squash"), 1u);

  std::ostringstream os;
  w.write(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":150"), std::string::npos);
  EXPECT_NE(json.find("\"trigger_tseq\":7"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // scoped instant

  w.clear();
  EXPECT_EQ(w.event_count(), 0u);
}

// Regression test for the instruction window's edges: it is half-open
// [start, end) and empty by default, so a cycle at start-1 or end records no
// per-instruction instant and cycles start and end-1 do.
TEST(ChromeTrace, InstructionWindowEdgesAreHalfOpen) {
  obs::ChromeTraceWriter w;
  EXPECT_FALSE(w.in_instruction_window(0));
  EXPECT_FALSE(w.in_instruction_window(150));

  w.set_instruction_window(/*start=*/100, /*end=*/200);
  EXPECT_FALSE(w.in_instruction_window(99));
  EXPECT_TRUE(w.in_instruction_window(100));
  EXPECT_TRUE(w.in_instruction_window(199));
  EXPECT_FALSE(w.in_instruction_window(200));

  // An empty window again records nothing.
  w.set_instruction_window(150, 150);
  EXPECT_FALSE(w.in_instruction_window(149));
  EXPECT_FALSE(w.in_instruction_window(150));
}

// Acceptance criterion for the structured trace: running a two-level scheme
// on a memory-bound mix produces named grant-lifecycle duration spans, and
// the request -> grant -> shadow chain is present per thread track.
TEST(ChromeTrace, GrantLifecycleSpansAppearInATwoLevelRun) {
  MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);
  SmtCore core(cfg, mix_benchmarks(table2_mix(2)));
  obs::ChromeTraceWriter trace;
  core.attach_chrome_trace(&trace);
  const RunResult r = core.run(4000);

  ASSERT_GT(run_counter(r, "rob.allocations"), 0u);
  EXPECT_GT(trace.count_named('X', "second_level_grant"), 0u);
  EXPECT_GT(trace.count_named('X', "l2_miss_shadow"), 0u);
  EXPECT_GT(trace.count_named('i', "second_level_request"), 0u);
  EXPECT_GT(trace.count_named('i', "dod_snapshot"), 0u);
  EXPECT_EQ(trace.count_named('M', "thread_name"), cfg.num_threads);
}

// Attaching the Chrome trace must not change the simulation (it observes
// state-changing ticks only and never pins the fast-forward off).
TEST(ChromeTrace, AttachmentDoesNotPerturbTheRun) {
  const auto benches = mix_benchmarks(table2_mix(2));
  const MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);

  SmtCore plain(cfg, benches);
  const RunResult a = plain.run(3000);

  SmtCore traced(cfg, benches);
  obs::ChromeTraceWriter trace;
  traced.attach_chrome_trace(&trace);
  const RunResult b = traced.run(3000);

  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_GT(traced.fast_forwarded_cycles(), 0u);  // FF stayed on
}

TEST(SelfProfiler, PhaseScopeRestoresTheEnclosingPhase) {
  auto current = [] { return obs::current_phase.load(std::memory_order_relaxed); };
  obs::enter(obs::Phase::kIssue);
  {
    const obs::PhaseScope memory(obs::Phase::kMemory);
    EXPECT_EQ(current(), obs::Phase::kMemory);
    {
      const obs::PhaseScope predict(obs::Phase::kPredict);
      EXPECT_EQ(current(), obs::Phase::kPredict);
    }
    EXPECT_EQ(current(), obs::Phase::kMemory);
  }
  EXPECT_EQ(current(), obs::Phase::kIssue);
  obs::enter(obs::Phase::kLoop);
  EXPECT_STREQ(obs::phase_name(obs::Phase::kLoop), "loop");
}

// The sampler reads the creating thread's phase: a thread parked in one
// phase for the profiler's whole life gets every sample there.
TEST(SelfProfiler, EverySampleLandsInTheCurrentPhase) {
  obs::enter(obs::Phase::kController);
  obs::SelfProfiler profiler;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  profiler.stop();
  obs::enter(obs::Phase::kLoop);

  EXPECT_GT(profiler.total_samples(), 0u);
  EXPECT_EQ(profiler.samples(obs::Phase::kController), profiler.total_samples());
  EXPECT_GE(profiler.wall_seconds(), 0.005);

  std::ostringstream os;
  profiler.print(os, 1000);
  EXPECT_NE(os.str().find("controller"), std::string::npos);
  EXPECT_NE(os.str().find("sampled"), std::string::npos);
}

TEST(SelfProfiler, ProfiledRunAttributesTimeWithoutChangingResults) {
  const auto benches = mix_benchmarks(table2_mix(1));
  const MachineConfig cfg = sampled_config(500);

  SmtCore plain(cfg, benches);
  const RunResult a = plain.run(3000, 0, 1000);

  SmtCore profiled(cfg, benches);
  obs::SelfProfiler profiler;
  const RunResult b = profiled.run(3000, 0, 1000);
  profiler.stop();

  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (size_t t = 0; t < a.threads.size(); ++t)
    EXPECT_EQ(a.threads[t].committed, b.threads[t].committed) << "thread " << t;
  EXPECT_GT(profiler.total_samples(), 0u);
  // The run leaves its thread outside every stage.
  EXPECT_EQ(obs::current_phase.load(std::memory_order_relaxed), obs::Phase::kLoop);
}

}  // namespace
}  // namespace tlrob

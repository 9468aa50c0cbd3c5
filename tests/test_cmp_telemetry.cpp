// CMP-wide telemetry tests: the closed stall-cycle taxonomy (every measured
// cycle of every thread attributed to exactly one StallClass, in every
// preset, with or without idle fast-forwarding), the machine-wide interval
// sampler under CmpMachine's global fast-forward, the interference rollup
// counters, and the merged per-core/backend Chrome trace.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/interval_sampler.hpp"
#include "sim/cmp.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/smt_sim.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob {
namespace {

// One benchmark per hardware thread, cycling the memory-bound Table 2 mix.
std::vector<Benchmark> benches_for(const MachineConfig& cfg) {
  const auto base = mix_benchmarks(table2_mix(2));
  std::vector<Benchmark> out;
  const size_t n = static_cast<size_t>(cfg.num_cores) * cfg.num_threads;
  for (size_t i = 0; i < n; ++i) out.push_back(base[i % base.size()]);
  return out;
}

MachineConfig sampled(MachineConfig cfg, Cycle interval) {
  cfg.telemetry.sample_interval = interval;
  return cfg;
}

// Audit off so the fast-forward actually fires (an armed audit pins every
// core cycle-by-cycle and would trivialise the FF-equivalence premise).
MachineConfig fast_forwarding(MachineConfig cfg) {
  cfg.audit.level = AuditLevel::kOff;
  return cfg;
}

u64 stall_sum(const std::array<u64, obs::kStallClassCount>& per_class) {
  return std::accumulate(per_class.begin(), per_class.end(), u64{0});
}

// The acceptance criterion of the taxonomy: closed accounting. In every
// preset — both engines, with and without warmup (which exercises the
// measurement-boundary reset) — each thread's cycles across the eight
// classes sum to exactly the run's measured cycle count.
TEST(StallTaxonomy, ClosesInEveryPreset) {
  struct Case {
    const char* name;
    MachineConfig cfg;
    u64 warmup;
  };
  const std::vector<Case> cases = {
      {"baseline32", baseline32_config(), 0},
      {"baseline128", baseline128_config(), 0},
      {"two_level_reactive", two_level_config(RobScheme::kReactive, 16), 500},
      {"two_level_predictive", two_level_config(RobScheme::kPredictive, 16), 0},
      {"single_thread", single_thread_config(), 0},
      {"cmp2_reactive", cmp_config(2, RobScheme::kReactive, 16), 500},
      {"cmp4_baseline", cmp_config(4, RobScheme::kBaseline, 16), 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const MachineConfig cfg = sampled(c.cfg, 250);
    const RunResult r = run_benchmarks(cfg, benches_for(cfg), 2000, 0, c.warmup);
    ASSERT_EQ(r.stall_cycles.size(),
              static_cast<size_t>(cfg.num_cores) * cfg.num_threads);
    for (size_t t = 0; t < r.stall_cycles.size(); ++t) {
      SCOPED_TRACE("thread " + std::to_string(t));
      EXPECT_EQ(stall_sum(r.stall_cycles[t]), r.cycles);
    }
  }
}

// Taxonomy off (sampling disabled) exports nothing — the structured field
// stays empty, so no campaign record and no counter map ever changes shape
// for a telemetry-off run.
TEST(StallTaxonomy, EmptyWhenSamplingIsOff) {
  const MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);
  const RunResult r = run_benchmarks(cfg, benches_for(cfg), 1500, 0, 0);
  EXPECT_TRUE(r.stall_cycles.empty());
  EXPECT_TRUE(obs::stall_summary_counters(r.stall_cycles).empty());
  EXPECT_TRUE(obs::cmp_summary_counters(r.samples, r.stall_cycles, 4).empty());
}

// A memory-bound mix behind a shared backend must attribute cycles to the
// backend classes — the taxonomy is not closed-but-degenerate.
TEST(StallTaxonomy, CmpRunAttributesBackendStalls) {
  const MachineConfig cfg = sampled(cmp_config(4, RobScheme::kReactive, 16), 250);
  const RunResult r = run_benchmarks(cfg, benches_for(cfg), 2000, 0, 0);
  u64 backend = 0;
  for (const auto& th : r.stall_cycles)
    backend += th[static_cast<size_t>(obs::StallClass::kMemLlc)] +
               th[static_cast<size_t>(obs::StallClass::kMemDram)] +
               th[static_cast<size_t>(obs::StallClass::kMemBus)];
  EXPECT_GT(backend, 0u);
}

// Machine-wide determinism contract: the merged series AND the taxonomy of
// a CmpMachine using the global idle fast-forward are bit-identical to a
// machine pinned cycle-by-cycle (one pinned core pins the whole lockstep
// machine).
TEST(CmpTelemetry, SeriesAndTaxonomyIdenticalWithAndWithoutFastForward) {
  const MachineConfig cfg =
      fast_forwarding(sampled(cmp_config(4, RobScheme::kReactive, 16), 250));
  const auto benches = benches_for(cfg);

  CmpMachine ff(cfg, benches);
  const RunResult with_ff = ff.run(2000);

  CmpMachine pinned(cfg, benches);
  std::ostringstream sink;
  // A silent text tracer on core 0 pins every core: CmpMachine only
  // fast-forwards when no core is pinned in the lockstep cycle.
  pinned.core(0).tracer().attach(&sink, 0, 0);
  const RunResult without_ff = pinned.run(2000);

  u64 skipped = 0;
  for (u32 c = 0; c < ff.num_cores(); ++c) skipped += ff.core(c).fast_forwarded_cycles();
  EXPECT_GT(skipped, 0u);
  for (u32 c = 0; c < pinned.num_cores(); ++c)
    EXPECT_EQ(pinned.core(c).fast_forwarded_cycles(), 0u);

  EXPECT_EQ(with_ff.cycles, without_ff.cycles);
  ASSERT_FALSE(with_ff.samples.empty());
  EXPECT_EQ(with_ff.samples, without_ff.samples);
  EXPECT_EQ(with_ff.stall_cycles, without_ff.stall_cycles);
  EXPECT_EQ(sink.str(), "");
}

// Turning machine-wide sampling on must not perturb the simulated CMP:
// cycles and every architectural counter stay bit-identical (the golden
// contract seen from the CMP side).
TEST(CmpTelemetry, SamplingDoesNotPerturbTheMachine) {
  const MachineConfig base = cmp_config(2, RobScheme::kReactive, 16);
  const auto benches = benches_for(base);

  CmpMachine off(sampled(base, 0), benches);
  const RunResult r_off = off.run(2000);

  CmpMachine on(sampled(base, 200), benches);
  const RunResult r_on = on.run(2000);

  EXPECT_EQ(r_off.cycles, r_on.cycles);
  EXPECT_EQ(r_off.counters, r_on.counters);
  EXPECT_TRUE(r_off.samples.empty());
  EXPECT_TRUE(r_off.stall_cycles.empty());
  ASSERT_FALSE(r_on.samples.empty());
  // The merged series carries the machine-wide MSHR occupancy and every
  // core's thread slices.
  EXPECT_EQ(r_on.samples.samples().front().threads.size(), benches.size());
}

// The per-thread second-level families key each thread by its
// machine-global index, so core 1's thread 0 is t4 on a 2x4 machine and no
// two threads share a key.
TEST(CmpTelemetry, PerThreadRobFamiliesUseTheMachineGlobalIndex) {
  const MachineConfig cfg = cmp_config(2, RobScheme::kReactive, 16);
  ASSERT_EQ(cfg.num_threads, 4u);
  CmpMachine machine(cfg, benches_for(cfg));
  const RunResult r = machine.run(4000);
  u64 allocations = 0;
  for (u32 t = 0; t < 8; ++t) {
    allocations += run_counter(r, "rob.allocations.t" + std::to_string(t));
    EXPECT_TRUE(r.counters.contains("rob.busy.t" + std::to_string(t))) << t;
  }
  EXPECT_FALSE(r.counters.contains("rob.allocations.t8"));
  EXPECT_FALSE(r.counters.contains("rob.busy.t8"));
  EXPECT_GT(allocations, 0u);
  EXPECT_EQ(allocations, run_counter(r, "rob.allocations"));
  for (u32 c = 0; c < 2; ++c)
    for (u32 t = 0; t < 4; ++t) {
      const std::string id = std::to_string(c * 4 + t);
      const TwoLevelRobController& ctrl = machine.core(c).rob_controller();
      EXPECT_EQ(run_counter(r, "rob.allocations.t" + id), ctrl.allocations_by_thread()[t]) << id;
      EXPECT_EQ(run_counter(r, "rob.busy.t" + id), ctrl.busy_by_thread()[t]) << id;
    }
}

TEST(CmpTelemetry, SummaryCountersFlattenTheTaxonomy) {
  std::vector<std::array<u64, obs::kStallClassCount>> per_thread(2);
  per_thread[0][static_cast<size_t>(obs::StallClass::kCommit)] = 70;
  per_thread[0][static_cast<size_t>(obs::StallClass::kMemLlc)] = 30;
  per_thread[1][static_cast<size_t>(obs::StallClass::kMemDram)] = 60;
  per_thread[1][static_cast<size_t>(obs::StallClass::kMemBus)] = 40;

  const auto stall = obs::stall_summary_counters(per_thread);
  EXPECT_EQ(stall.size(), 2 * obs::kStallClassCount);
  EXPECT_EQ(stall.at("stall.t0.commit_cycles"), 70u);
  EXPECT_EQ(stall.at("stall.t0.mem_llc_cycles"), 30u);
  EXPECT_EQ(stall.at("stall.t1.mem_dram_cycles"), 60u);
  EXPECT_EQ(stall.at("stall.t1.rob2_wait_cycles"), 0u);

  obs::IntervalSeries series(100);
  for (u32 i = 1; i <= 10; ++i) {
    obs::IntervalSample s;
    s.cycle = 100 * i;
    s.llc_mshr_occ = i;
    s.threads.emplace_back();
    series.add(std::move(s));
  }
  const auto cmp = obs::cmp_summary_counters(series, per_thread, 2);
  EXPECT_EQ(cmp.at("obs.cmp.cores"), 2u);
  EXPECT_EQ(cmp.at("obs.cmp.stall_llc_cycles"), 30u);
  EXPECT_EQ(cmp.at("obs.cmp.stall_dram_cycles"), 60u);
  EXPECT_EQ(cmp.at("obs.cmp.stall_bus_cycles"), 40u);
  EXPECT_EQ(cmp.at("obs.cmp.llc_mshr_p90"), 9u);
}

// The machine-wide Chrome trace: one process per core (pid = core index),
// a shared-backend process with the LLC MSHR-pool counter track and
// per-bank DRAM row-state instants, all merged into one well-formed JSON
// document with no (pid, tid) collisions.
TEST(CmpTelemetry, MergedChromeTraceCarriesBackendTracks) {
  const MachineConfig cfg = cmp_config(2, RobScheme::kReactive, 16);
  const auto benches = benches_for(cfg);
  CmpMachine machine(cfg, benches);

  std::vector<obs::ChromeTraceWriter> core_writers(machine.num_cores());
  obs::ChromeTraceWriter backend;
  std::vector<obs::ChromeTraceWriter*> per_core;
  for (auto& w : core_writers) per_core.push_back(&w);
  machine.attach_chrome_trace(per_core, &backend);
  machine.run(2000);

  EXPECT_EQ(core_writers[0].pid(), 0u);
  EXPECT_EQ(core_writers[1].pid(), 1u);
  EXPECT_EQ(backend.pid(), 2u);
  EXPECT_EQ(core_writers[0].count_named('M', "process_name"), 1u);
  EXPECT_EQ(backend.count_named('M', "process_name"), 1u);
  // The backend names its MSHR-pool track and one track per DRAM bank.
  EXPECT_GT(backend.count_named('M', "thread_name"), 1u);
  EXPECT_GT(backend.count_named('C', "llc_mshr_occupancy"), 0u);
  const u64 row_events = backend.count_named('i', "row_hit") +
                         backend.count_named('i', "row_open") +
                         backend.count_named('i', "row_conflict");
  EXPECT_GT(row_events, 0u);

  std::ostringstream os;
  std::vector<const obs::ChromeTraceWriter*> all = {&core_writers[0], &core_writers[1],
                                                    &backend};
  obs::ChromeTraceWriter::write_merged(os, all);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("llc mshr pool"), std::string::npos);
  EXPECT_NE(json.find("dram ch0 bank0"), std::string::npos);
  EXPECT_NE(json.find("core1"), std::string::npos);
}

// A 1-core machine without a backend is the single-core machine, so its
// trace is exactly a bare core's: one unnamed process, pid 0, same events.
TEST(CmpTelemetry, OneCoreMachineTraceIsTheBareCoreTrace) {
  const MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);
  const auto benches = benches_for(cfg);

  SmtCore core(cfg, benches);
  obs::ChromeTraceWriter bare;
  core.attach_chrome_trace(&bare);
  core.run(2000);

  CmpMachine machine(cfg, benches);
  obs::ChromeTraceWriter one;
  obs::ChromeTraceWriter backend;
  machine.attach_chrome_trace({&one}, &backend);
  machine.run(2000);

  std::ostringstream a, b;
  bare.write(a);
  one.write(b);
  EXPECT_GT(bare.event_count(), 0u);
  EXPECT_EQ(one.count_named('M', "process_name"), 0u);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(backend.event_count(), 0u);  // no backend to trace
}

// Attaching the machine-wide trace must not change the simulated CMP.
TEST(CmpTelemetry, TraceAttachmentDoesNotPerturbTheMachine) {
  const MachineConfig cfg = fast_forwarding(cmp_config(2, RobScheme::kReactive, 16));
  const auto benches = benches_for(cfg);

  CmpMachine plain(cfg, benches);
  const RunResult a = plain.run(2000);

  CmpMachine traced(cfg, benches);
  std::vector<obs::ChromeTraceWriter> core_writers(traced.num_cores());
  obs::ChromeTraceWriter backend;
  std::vector<obs::ChromeTraceWriter*> per_core;
  for (auto& w : core_writers) per_core.push_back(&w);
  traced.attach_chrome_trace(per_core, &backend);
  const RunResult b = traced.run(2000);

  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.counters, b.counters);
}

// Samples interleave with replayed idle spans at the right boundaries: the
// cumulative per-thread stall vector inside each sample sums to that
// sample's offset from the measurement base (label semantics: a sample
// labelled L captures state after cycle L-1).
TEST(CmpTelemetry, SampledStallVectorsCloseAtEveryBoundary) {
  const MachineConfig cfg = sampled(cmp_config(2, RobScheme::kReactive, 16), 250);
  const auto benches = benches_for(cfg);
  CmpMachine machine(cfg, benches);
  const RunResult r = machine.run(2000);

  ASSERT_FALSE(r.samples.empty());
  const Cycle first = r.samples.samples().front().cycle;
  // Without warmup the measurement base is cycle 0, so the offset of a
  // sample labelled L is exactly L.
  ASSERT_EQ(first, r.samples.interval());
  for (const auto& s : r.samples.samples())
    for (const auto& th : s.threads) EXPECT_EQ(stall_sum(th.stall), s.cycle);
}

}  // namespace
}  // namespace tlrob

// Simulator-throughput microbenchmarks (google-benchmark): cycles/second and
// simulated-instructions/second of the core on representative workloads.
// Not a paper figure — a regression guard for the simulator itself.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "sim/cmp.hpp"
#include "sim/event_wheel.hpp"
#include "sim/experiment.hpp"
#include "trace/resolve.hpp"
#include "workload/spec_profiles.hpp"

using namespace tlrob;

namespace {

void BM_SingleThreadCompute(benchmark::State& state) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    MachineConfig cfg = single_thread_config();
    SmtCore core(cfg, {spec_benchmark("crafty")});
    const RunResult r = core.run(20000);
    insts += r.threads[0].committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SingleThreadCompute)->Unit(benchmark::kMillisecond);

void BM_SingleThreadMemoryBound(benchmark::State& state) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    MachineConfig cfg = single_thread_config();
    SmtCore core(cfg, {spec_benchmark("art")});
    const RunResult r = core.run(10000);
    insts += r.threads[0].committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SingleThreadMemoryBound)->Unit(benchmark::kMillisecond);

void BM_FourThreadMixTwoLevel(benchmark::State& state) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    SmtCore core(two_level_config(RobScheme::kReactive, 16),
                 mix_benchmarks(table2_mix(1)));
    const RunResult r = core.run(10000);
    for (const auto& t : r.threads) insts += t.committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FourThreadMixTwoLevel)->Unit(benchmark::kMillisecond);

// Cache-hierarchy stress: four low-locality memory-hostile threads (pointer
// chases and random gathers) whose combined footprint defeats the L2, so the
// run spends its time in the cache probe/fill/MSHR/memory-channel path and a
// regression there moves this number even when the compute-heavy benches
// stay flat. High L2 MPKI by construction — every thread misses the L2 for
// most of its loads.
void BM_CacheHierarchyStress(benchmark::State& state) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    SmtCore core(two_level_config(RobScheme::kReactive, 16),
                 {spec_benchmark("mcf"), spec_benchmark("art"),
                  spec_benchmark("equake"), spec_benchmark("lucas")});
    const RunResult r = core.run(10000);
    for (const auto& t : r.threads) insts += t.committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheHierarchyStress)->Unit(benchmark::kMillisecond);

// Trace-frontend throughput: drives TraceThreadSource::next() directly —
// record decode, per-record replay (lookahead, address rebasing, target
// resolution) and loop rewind, with no timing model behind it. The workload
// is an in-memory synthesized trace (loaded and lowered once, outside the
// timed region, via the resolve memo). Reported under the regression
// guard's "sim_cycles/s" key so BENCH_sim_speed.json can track it; the unit
// here is replayed uops, not cycles.
void BM_TraceFrontendDecode(benchmark::State& state) {
  const Benchmark bench = trace::resolve_benchmark("tracegen:art@20000@1");
  constexpr u64 kUopsPerIter = 100000;
  u64 uops = 0;
  for (auto _ : state) {
    auto src = make_thread_context(bench, 0, 1);
    for (u64 i = 0; i < kUopsPerIter; ++i) benchmark::DoNotOptimize(src->next());
    uops += kUopsPerIter;
  }
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(uops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceFrontendDecode)->Unit(benchmark::kMillisecond);

// Event-wheel throughput through its public API alone: one iteration is one
// core-like cycle, which schedules that cycle's completions and drains the
// cycle; every eighth cycle then fast-forwards to the next event as an idle
// core does (next_event_or). Delays follow a precomputed pattern: mostly
// functional-unit and L1 latencies, some memory latencies, and about 2 %
// past the 4096-cycle horizon. The pending population ("pending", the mean
// after each cycle) stays in the tens, as in a core. "sim_cycles/s" counts
// wheel cycles drained, jumps included.
void BM_EventWheel(benchmark::State& state) {
  std::mt19937 rng(1);
  std::vector<u32> delays(4096);
  for (u32& d : delays) {
    const u32 roll = rng() % 100;
    d = roll < 2 ? 4096 + rng() % 512 : roll < 20 ? 50 + rng() % 250 : 1 + rng() % 16;
  }
  EventWheel wheel;
  Cycle now = 0;
  u64 cycles = 0, fired = 0, tick = 0, next = 0, pending = 0;
  for (auto _ : state) {
    if (tick % 2 != 0) {  // an event every other cycle
      const Cycle when = now + delays[next % delays.size()];
      wheel.schedule(when, EvKind::kFuComplete, InstRef{.tseq = ++next});
    }
    wheel.process_due(now, [&](const SimEvent& ev) { fired += ev.ref.tseq; });
    const Cycle to = ++tick % 8 == 0 ? wheel.next_event_or(now + 1) : now + 1;
    cycles += to - now;
    now = to;
    pending += wheel.pending();
  }
  benchmark::DoNotOptimize(fired);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["pending"] =
      benchmark::Counter(static_cast<double>(pending), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EventWheel);

// CMP-engine throughput: four SMT cores (16 hardware threads) in lockstep
// behind the shared LLC + banked DRAM, each core on a different Table 2
// mix. Exercises everything the single-core benches cannot: the per-cycle
// lockstep tick loop, the per-core idle fast-forward (a core sleeps while
// its peers run), and the shared-backend request path under cross-core
// contention.
// Cycles counted once per machine (lockstep), so cycles/s compares directly
// with the 1-core numbers as "machine cycles simulated per second".
void BM_CmpFourCoreMix(benchmark::State& state) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    std::vector<Benchmark> work;
    for (const u32 m : {1u, 4u, 7u, 10u})
      for (Benchmark& b : mix_benchmarks(table2_mix(m))) work.push_back(std::move(b));
    CmpMachine machine(cmp_config(4, RobScheme::kReactive, 16), work);
    const RunResult r = machine.run(10000);
    for (const auto& t : r.threads) insts += t.committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CmpFourCoreMix)->Unit(benchmark::kMillisecond);

// Telemetry-overhead companion to BM_CmpFourCoreMix: the identical machine
// with interval sampling on, which arms the full observability stack — the
// per-cycle stall-taxonomy attribution, the piecewise idle-span replay, and
// the machine-wide sample merge. The regression gate holds the sampled
// engine to the same floor as everything else, so attribution
// creeping into the hot path (instead of staying behind the
// sample_every_ != 0 gate) shows up as a perf-smoke failure, not a
// mystery slowdown.
void BM_CmpFourCoreMixSampled(benchmark::State& state) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    std::vector<Benchmark> work;
    for (const u32 m : {1u, 4u, 7u, 10u})
      for (Benchmark& b : mix_benchmarks(table2_mix(m))) work.push_back(std::move(b));
    MachineConfig cfg = cmp_config(4, RobScheme::kReactive, 16);
    cfg.telemetry.sample_interval = 500;
    CmpMachine machine(cfg, work);
    const RunResult r = machine.run(10000);
    for (const auto& t : r.threads) insts += t.committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CmpFourCoreMixSampled)->Unit(benchmark::kMillisecond);

// Invariant-audit overhead: the four-thread two-level mix with the auditor
// at each level, explicitly overriding any $TLROB_AUDIT ambient setting so
// the three variants measure exactly what their names say. The cheap tier is
// the always-on CI tier (DESIGN.md §6 records its cost against Off); Full is
// the debugging tier and is expected to be much slower (ground-truth recounts).
void BM_AuditOverhead(benchmark::State& state, AuditLevel level) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);
    cfg.audit = AuditConfig{};
    cfg.audit.level = level;
    cfg.audit.abort_on_violation = true;
    SmtCore core(cfg, mix_benchmarks(table2_mix(1)));
    const RunResult r = core.run(10000);
    for (const auto& t : r.threads) insts += t.committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_AuditOverhead, Off, AuditLevel::kOff)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AuditOverhead, Cheap, AuditLevel::kCheap)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AuditOverhead, Full, AuditLevel::kFull)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

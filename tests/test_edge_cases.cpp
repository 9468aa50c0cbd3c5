// Edge-case coverage: output formatting, generator corner cases, metric
// boundary conditions and defensive-path behaviour not exercised elsewhere.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "isa/program_builder.hpp"
#include "memory/memory_channel.hpp"
#include "sim/metrics.hpp"
#include "workload/addr_gen.hpp"
#include "workload/branch_gen.hpp"
#include "workload/kernels.hpp"

namespace tlrob {
namespace {

TEST(StatsExport, FamilyKeysCarryTheirIndex) {
  std::map<std::string, u64> out;
  export_family(out, "rob.busy.t", {5, 0, 7});
  EXPECT_EQ(out, (std::map<std::string, u64>{
                     {"rob.busy.t0", 5}, {"rob.busy.t1", 0}, {"rob.busy.t2", 7}}));
  export_family(out, "rob.busy.t", {});
  EXPECT_EQ(out.size(), 3u);
}

TEST(HistogramPrint, LabelledRows) {
  Histogram h(3);
  h.record(1);
  h.record(9);  // clamps to 3
  std::ostringstream os;
  h.print(os, "mix1");
  EXPECT_NE(os.str().find("mix1 1 1"), std::string::npos);
  EXPECT_NE(os.str().find("mix1 3 1"), std::string::npos);
}

TEST(Metrics, RunCounterThrowsOnAbsentName) {
  RunResult r;
  EXPECT_THROW(run_counter(r, "nope"), std::out_of_range);
  r.counters["x"] = 7;
  EXPECT_EQ(run_counter(r, "x"), 7u);
}

TEST(Metrics, FairThroughputZeroIpcPinsToZero) {
  EXPECT_DOUBLE_EQ(fair_throughput({0.0, 1.0}, {1.0, 1.0}), 0.0);
}

TEST(AddrGen, TinyRegionsNeverUnderflow) {
  AddrGenSpec s;
  s.pattern = AddrPattern::kRandom;
  s.region_bytes = 4;  // smaller than the access size
  s.access_size = 8;
  AddrGen g(s, 0x1000, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(g.next(), 0x1000u);
}

TEST(AddrGen, PointerChaseSingleLineDegenerates) {
  AddrGenSpec s;
  s.pattern = AddrPattern::kPointerChase;
  s.region_bytes = 64;  // exactly one line
  AddrGen g(s, 0, 1);
  const Addr a = g.next();
  EXPECT_EQ(g.next(), a);
}

TEST(AddrGen, HotFractionOneConfinesToPrefix) {
  AddrGenSpec s;
  s.pattern = AddrPattern::kRandom;
  s.region_bytes = 1 << 20;
  s.hot_fraction = 1.0;
  s.hot_bytes = 4096;
  AddrGen g(s, 0, 3);
  for (int i = 0; i < 2000; ++i) EXPECT_LT(g.next(), 4096u);
}

TEST(BranchGen, PeriodicMatchesLoopSemantics) {
  BranchGenSpec s;
  s.pattern = BranchPattern::kPeriodic;
  s.trip = 3;
  BranchGen g(s, 1);
  EXPECT_TRUE(g.next());
  EXPECT_TRUE(g.next());
  EXPECT_FALSE(g.next());
  EXPECT_TRUE(g.next());
}

TEST(BranchGen, ZeroTripClampsToOne) {
  BranchGenSpec s;
  s.pattern = BranchPattern::kLoop;
  s.trip = 0;
  BranchGen g(s, 1);
  EXPECT_FALSE(g.next());  // trip 1: never taken
}

TEST(Channel, ResetRestoresIdleState) {
  MemoryChannelConfig cfg;
  MemoryChannel ch(cfg);
  ch.request_fill(0);
  ch.request_fill(0);
  ch.reset();
  EXPECT_EQ(ch.request_fill(0), cfg.first_chunk + ch.transfer_cycles());
}

TEST(Kernels, ZeroReducePhaseOmitsTheBlocks) {
  RandomGatherParams p;
  p.working_set_bytes = 1 << 16;
  p.reduce_trip = 0;
  const Benchmark without = make_random_gather("nored", p);
  p.reduce_trip = 96;
  const Benchmark with = make_random_gather("red", p);
  EXPECT_LT(without.program->num_blocks(), with.program->num_blocks());
  EXPECT_LT(without.bgens.size(), with.bgens.size());
  // Both remain runnable.
  ThreadContext a(without, 0, 1), b(with, 0, 1);
  for (int i = 0; i < 2000; ++i) {
    a.next();
    b.next();
  }
}

TEST(Kernels, StreamWithoutReuseTableOmitsIt) {
  StreamParams p;
  p.working_set_bytes = 1 << 16;
  p.reuse_bytes = 0;
  p.reduce_trip = 0;
  const Benchmark b = make_stream("plain", p);
  ThreadContext ctx(b, 0, 1);
  for (int i = 0; i < 2000; ++i) ctx.next();
  SUCCEED();
}

TEST(ProgramBuilder, DeepCallChainsAreGuarded) {
  // A call that never returns must not grow the architectural return stack
  // without bound (ThreadContext caps it).
  ProgramBuilder pb("recurse");
  const u32 entry = pb.current_block();
  const u32 callee = pb.new_block();
  pb.in(entry).int_alu(ireg(1)).call(callee);
  pb.fallthrough(entry, entry);
  pb.in(callee).int_alu(ireg(2)).call(callee);  // self-recursive, no ret
  pb.fallthrough(callee, callee);
  Program p = pb.build(0, 0);

  Benchmark b;
  b.name = "recurse";
  b.program = std::make_shared<Program>(std::move(p));
  ThreadContext ctx(b, 0, 1);
  for (int i = 0; i < 100000; ++i) ctx.next();  // must not blow up
  SUCCEED();
}

}  // namespace
}  // namespace tlrob

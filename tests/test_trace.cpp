// Trace-frontend tests: the ChampSim record codec, micro-op lowering,
// deterministic replay, the workload resolver's error contract, and the
// campaign runner's handling of trace workloads — including the malformed-
// input paths, every one of which must surface as a structured per-job
// failure (or a typed exception at resolution), never a crash.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "rob/allocation_policy.hpp"
#include "runner/engine.hpp"
#include "sim/cmp.hpp"
#include "sim/presets.hpp"
#include "trace/byte_source.hpp"
#include "trace/champsim.hpp"
#include "trace/lowering.hpp"
#include "trace/resolve.hpp"
#include "trace/source.hpp"
#include "trace/synth.hpp"
#include "workload/mixes.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob::trace {
namespace {

using runner::CampaignResult;
using runner::CampaignSpec;
using runner::EngineOptions;
using runner::JobRecord;
using runner::JobStatus;
using runner::run_campaign;
using runner::to_json_line;

std::string temp_file(const std::string& stem) { return testing::TempDir() + stem; }

ChampSimRecord load_record(u64 ip, u64 addr, u8 dest = 1, u8 src = 2) {
  ChampSimRecord rec;
  rec.ip = ip;
  rec.dest_regs[0] = dest;
  rec.src_regs[0] = src;
  rec.src_mem[0] = addr;
  return rec;
}

// -- codec ------------------------------------------------------------------

TEST(TraceCodec, WireRoundTrip) {
  ChampSimRecord rec;
  rec.ip = 0x123456789abcdef0ULL;
  rec.is_branch = 1;
  rec.branch_taken = 1;
  rec.dest_regs = {26, 6};
  rec.src_regs = {26, 25, 3, 0};
  rec.dest_mem = {0xdeadbeef, 0};
  rec.src_mem = {0x1000, 0x2000, 0, 0x4000};

  u8 wire[kRecordBytes];
  serialize_record(rec, wire);
  const ChampSimRecord back = deserialize_record(wire);
  EXPECT_EQ(back.ip, rec.ip);
  EXPECT_EQ(back.is_branch, rec.is_branch);
  EXPECT_EQ(back.branch_taken, rec.branch_taken);
  EXPECT_EQ(back.dest_regs, rec.dest_regs);
  EXPECT_EQ(back.src_regs, rec.src_regs);
  EXPECT_EQ(back.dest_mem, rec.dest_mem);
  EXPECT_EQ(back.src_mem, rec.src_mem);

  // The hash is over wire bytes, so it must be invariant under a round trip.
  EXPECT_EQ(fnv1a_record(kFnvOffsetBasis, rec), fnv1a_record(kFnvOffsetBasis, back));
}

TEST(TraceCodec, SynthesizedBranchConventionsClassify) {
  // The transcription conventions in synth.cpp must land on the ChampSim
  // branch kinds they were designed for.
  ChampSimRecord cond;
  cond.is_branch = 1;
  cond.src_regs = {kRegInstructionPointer, kRegFlags, 0, 0};
  cond.dest_regs = {kRegInstructionPointer, 0};
  EXPECT_EQ(classify_branch(cond), BranchKind::kConditional);

  ChampSimRecord jump;
  jump.is_branch = 1;
  jump.dest_regs = {kRegInstructionPointer, 0};
  EXPECT_EQ(classify_branch(jump), BranchKind::kDirectJump);

  ChampSimRecord call;
  call.is_branch = 1;
  call.src_regs = {kRegInstructionPointer, kRegStackPointer, 0, 0};
  call.dest_regs = {kRegInstructionPointer, kRegStackPointer};
  EXPECT_EQ(classify_branch(call), BranchKind::kDirectCall);

  ChampSimRecord ret;
  ret.is_branch = 1;
  ret.src_regs = {kRegStackPointer, 0, 0, 0};
  ret.dest_regs = {kRegInstructionPointer, kRegStackPointer};
  EXPECT_EQ(classify_branch(ret), BranchKind::kReturn);

  ChampSimRecord plain;
  EXPECT_EQ(classify_branch(plain), BranchKind::kNotBranch);
}

// -- lowering ---------------------------------------------------------------

TEST(TraceLowering, MemoryRecordSplitsIntoAgenAndAccessUops) {
  ChampSimRecord rec;
  rec.ip = 0x400000;
  rec.dest_regs = {1, 0};
  rec.src_regs = {2, 3, 0, 0};
  rec.src_mem = {0x1000, 0x2000, 0, 0};  // two loads
  rec.dest_mem = {0x3000, 0};            // one store

  const std::vector<StaticInst> uops = lower_record(rec);
  ASSERT_EQ(uops.size(), 4u);  // agen + 2 loads + 1 store
  EXPECT_EQ(uops[0].op, OpClass::kIntAlu);
  EXPECT_EQ(uops[0].dest, kAgenTempReg);
  EXPECT_EQ(uops[1].op, OpClass::kLoad);
  EXPECT_EQ(uops[1].src[0], kAgenTempReg);      // depends on address generation
  EXPECT_EQ(uops[1].dest, map_trace_reg(1));    // first load writes the real dest
  EXPECT_EQ(uops[2].op, OpClass::kLoad);
  EXPECT_EQ(uops[2].dest, kValueTempReg);       // second load has no dest slot left
  EXPECT_EQ(uops[3].op, OpClass::kStore);
  EXPECT_EQ(uops[3].src[0], kAgenTempReg);
}

TEST(TraceLowering, RegisterMapAvoidsReservedScratch) {
  EXPECT_EQ(map_trace_reg(0), kNoReg);
  EXPECT_EQ(map_trace_reg(kRegInstructionPointer), kNoReg);
  for (u8 r = 1; r < kMaxTraceReg; ++r) {
    if (r == kRegInstructionPointer) continue;
    const ArchReg m = map_trace_reg(r);
    EXPECT_NE(m, kNoReg) << static_cast<int>(r);
    EXPECT_NE(m, kAgenTempReg) << static_cast<int>(r);
    EXPECT_NE(m, kValueTempReg) << static_cast<int>(r);
  }
  // 33..64 are the FP file.
  EXPECT_TRUE(is_fp_reg(map_trace_reg(33)));
  EXPECT_TRUE(is_fp_reg(map_trace_reg(64)));
  EXPECT_FALSE(is_fp_reg(map_trace_reg(32)));
  EXPECT_FALSE(is_fp_reg(map_trace_reg(65)));
}

TEST(TraceLowering, ZeroRecordTraceThrows) {
  EXPECT_THROW(TraceWorkload::from_records("empty", {}), std::runtime_error);
}

TEST(TraceLowering, OutOfRangeRegisterThrows) {
  std::vector<ChampSimRecord> recs = {load_record(0x400000, 0x1000)};
  recs.push_back(load_record(0x400040, 0x2000));
  recs[1].src_regs[2] = 200;  // >= kMaxTraceReg
  try {
    TraceWorkload::from_records("badreg", recs);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    // The diagnostic names the offending record and register.
    EXPECT_NE(std::string(e.what()).find("record 1"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("200"), std::string::npos) << e.what();
  }
}

// A call record never shows where its return lands; the lowering pairs each
// return with its call (a shadow call stack), and the call block falls
// through to the landing block, whose PC the RAS pushes at the call.
TEST(TraceLowering, CallFallsThroughToItsReturnsLandingBlock) {
  auto control = [](u64 ip, std::array<u8, kNumSrcRegs> src, std::array<u8, kNumDestRegs> dest) {
    ChampSimRecord rec;
    rec.ip = ip;
    rec.is_branch = 1;
    rec.branch_taken = 1;
    rec.src_regs = src;
    rec.dest_regs = dest;
    return rec;
  };
  const std::array<u8, kNumSrcRegs> call_src = {kRegInstructionPointer, kRegStackPointer, 0, 0};
  const std::array<u8, kNumSrcRegs> ret_src = {kRegStackPointer, 0, 0, 0};
  const std::array<u8, kNumDestRegs> ip_sp = {kRegInstructionPointer, kRegStackPointer};
  // 0x100 calls 0x200, which calls 0x300; each return lands after its call.
  const std::vector<ChampSimRecord> recs = {
      control(0x100, call_src, ip_sp),                  // call f
      control(0x200, call_src, ip_sp),                  // f: call g
      control(0x300, ret_src, ip_sp),                   // g: return to f
      control(0x204, ret_src, ip_sp),                   // f: return to main
      control(0x104, {}, {kRegInstructionPointer, 0}),  // main: jump back to 0x100
  };
  ASSERT_EQ(classify_branch(recs[0]), BranchKind::kDirectCall);
  ASSERT_EQ(classify_branch(recs[2]), BranchKind::kReturn);
  const auto wl = TraceWorkload::from_records("calls", recs);
  const TraceLowering& low = wl->lowering();
  auto block = [&](u64 ip) { return *low.block_of_ip.find(ip); };
  EXPECT_EQ(low.program->block(block(0x100)).fallthrough, block(0x104));
  EXPECT_EQ(low.program->block(block(0x200)).fallthrough, block(0x204));
}

// -- byte sources & malformed files ----------------------------------------

TEST(TraceFiles, RawFileRoundTrip) {
  const auto recs = synthesize_records("art", 200, 3);
  const std::string path = temp_file("roundtrip.trace");
  write_trace_file(path, recs);

  const auto wl = TraceWorkload::from_file(path);
  EXPECT_EQ(wl->lowering().record_count, 200u);

  // Content identity is backend-independent: the same records loaded from
  // memory hash identically to the file-backed load.
  const auto mem = TraceWorkload::from_records("mem", recs);
  EXPECT_EQ(wl->lowering().content_hash, mem->lowering().content_hash);
}

TEST(TraceFiles, GzipFileRoundTrip) {
  if (!gzip_supported()) GTEST_SKIP() << "built without zlib";
  const auto recs = synthesize_records("mcf", 150, 5);
  const std::string gz_path = temp_file("roundtrip.trace.gz");
  write_trace_file(gz_path, recs);

  const auto wl = TraceWorkload::from_file(gz_path);
  EXPECT_EQ(wl->lowering().record_count, 150u);
  EXPECT_EQ(wl->lowering().content_hash,
            TraceWorkload::from_records("mem", recs)->lowering().content_hash);
}

TEST(TraceFiles, MidRecordTruncationThrows) {
  const auto recs = synthesize_records("art", 10, 1);
  auto bytes = records_to_bytes(recs);
  bytes.resize(bytes.size() - 17);  // chop mid-record
  const std::string path = temp_file("truncated.trace");
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  try {
    TraceWorkload::from_file(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mid-record"), std::string::npos) << e.what();
  }
}

TEST(TraceFiles, TruncatedGzipStreamThrows) {
  if (!gzip_supported()) GTEST_SKIP() << "built without zlib";
  const auto recs = synthesize_records("art", 2000, 1);
  const std::string gz_path = temp_file("corrupt.trace.gz");
  write_trace_file(gz_path, recs);

  // Chop the compressed stream in half: inflate then ends prematurely.
  std::ifstream in(gz_path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string whole = ss.str();
  const std::string cut_path = temp_file("cut.trace.gz");
  std::ofstream(cut_path, std::ios::binary).write(whole.data(), whole.size() / 2);

  EXPECT_THROW(TraceWorkload::from_file(cut_path), std::runtime_error);
}

TEST(TraceFiles, MissingFileThrows) {
  EXPECT_THROW(TraceWorkload::from_file(temp_file("does_not_exist.trace")),
               std::runtime_error);
}

// -- replay -----------------------------------------------------------------

TEST(TraceReplay, DeterministicAndRewinding) {
  const Benchmark bench = resolve_benchmark("tracegen:art@300@5");
  ASSERT_TRUE(bench.source_factory);

  auto a = make_thread_context(bench, 0, 101);
  auto b = make_thread_context(bench, 0, 909);  // the seed (so the salt) must not matter
  for (int i = 0; i < 2000; ++i) {
    const ArchOp x = a->next();
    const ArchOp y = b->next();
    ASSERT_EQ(x.pc, y.pc) << i;
    ASSERT_EQ(x.mem_addr, y.mem_addr) << i;
    ASSERT_EQ(x.taken, y.taken) << i;
    ASSERT_EQ(x.target_pc, y.target_pc) << i;
    ASSERT_EQ(x.si, y.si) << i;  // same shared program
  }
  // 2000 uops over a 300-record trace must have wrapped at least once.
  const auto* src = dynamic_cast<const TraceThreadSource*>(a.get());
  ASSERT_NE(src, nullptr);
  EXPECT_GT(src->reader().rewinds(), 0u);
  EXPECT_GT(src->reader().records_decoded(), 300u);
}

TEST(TraceReplay, AddressesStayInThreadWindow) {
  const Benchmark bench = resolve_benchmark("tracegen:mcf@200@7");
  const Addr base = thread_placement(2, 1).base;
  auto src = make_thread_context(bench, 2, 1);
  for (int i = 0; i < 1000; ++i) {
    const ArchOp op = src->next();
    if (op.si->is_load() || op.si->is_store()) {
      EXPECT_GE(op.mem_addr, base) << i;
      EXPECT_LT(op.mem_addr, base + (Addr{1} << kThreadWindowBits)) << i;
    }
  }
}

// The replayed returns of a synthesized trace with calls all predict right:
// each call pushes the PC its return lands on.
TEST(TraceReplay, ReturnsPredictThroughTheRas) {
  SmtCore core(single_thread_config(), {resolve_benchmark("tracegen:crafty@500@19")});
  const RunResult r = core.run(3000, 0, 1000);
  EXPECT_GT(run_counter(r, "bpred.branch.returns"), 0u);
  EXPECT_EQ(run_counter(r, "bpred.branch.ras_mispredict"), 0u);
}

TEST(TraceReplay, WarmsNothing) {
  const auto src = make_thread_context(resolve_benchmark("tracegen:art@100@2"), 0, 1);
  for (u32 tier = 0; tier < ThreadContext::kWarmTiers; ++tier)
    EXPECT_TRUE(src->warm_regions(tier).empty()) << tier;
}

// Today's layout, pinned: machine-global thread g owns the 64 GiB window from
// (g + 1) << 36, fetches PC p from base + p, and a trace's data addresses
// fold into exactly that window.
TEST(ThreadPlacement, DisjointWindowsCodeAtBasePlusPcTraceDataInTheWindow) {
  constexpr Addr kWindow = Addr{1} << 36;
  ASSERT_EQ(Addr{1} << kThreadWindowBits, kWindow);
  for (u64 g = 0; g < 16; ++g) {
    const ThreadPlacement p = thread_placement(g, 12345);
    EXPECT_EQ(p.base, (g + 1) * kWindow) << g;
    EXPECT_EQ(p.salt, 12345 + 7919 * (g + 1)) << g;
  }

  const Benchmark& art = spec_benchmark("art");
  const auto ctx = make_thread_context(art, 5, 1);
  for (u32 b = 0; b < art.program->num_blocks(); ++b)
    for (const StaticInst& si : art.program->block(b).insts)
      EXPECT_EQ(ctx->code_addr(si.pc), thread_placement(5, 1).base + si.pc);

  const Addr above = (Addr{0xabc} << 36) | 0x12345678;  // bits above the window
  const Benchmark trace = trace_benchmark(TraceWorkload::from_records(
      "window", {load_record(0x100, above), load_record(0x104, kWindow - 8)}));
  const auto src = make_thread_context(trace, 2, 1);
  const Addr base = thread_placement(2, 1).base;
  std::vector<Addr> loads;
  while (loads.size() < 2) {
    const ArchOp op = src->next();
    if (op.si->is_load()) loads.push_back(op.mem_addr);
  }
  EXPECT_EQ(loads, (std::vector<Addr>{base + 0x12345678, base + kWindow - 8}));
}

TEST(TraceReplay, SourceCountersExported) {
  const Benchmark bench = resolve_benchmark("tracegen:art@100@2");
  auto src = make_thread_context(bench, 0, 1);
  for (int i = 0; i < 500; ++i) src->next();

  std::map<std::string, u64> counters;
  src->append_source_counters(2, counters);
  EXPECT_GT(counters.at("trace.records_decoded"), 0u);
  EXPECT_GT(counters.at("trace.rewinds"), 0u);
  EXPECT_GT(counters.at("trace.t2.records_decoded"), 0u);
  EXPECT_NE(counters.at("trace.t2.content_hash"), 0u);
  EXPECT_EQ(counters.count("trace.t0.records_decoded"), 0u);  // only tid 2
}

// -- resolver ---------------------------------------------------------------

TEST(TraceResolve, UnknownWorkloadListsBackends) {
  try {
    resolve_benchmark("not_a_workload");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("available workload backends"), std::string::npos) << msg;
    EXPECT_NE(msg.find("trace:<file>"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tracegen:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("art"), std::string::npos) << msg;  // synthetic mixes listed
  }
}

TEST(TraceResolve, WorkloadMixForms) {
  const Mix m = workload_mix("art,trace:/tmp/x.gz,tracegen:mcf@100@1");
  EXPECT_EQ(m.benchmarks,
            (std::vector<std::string>{"art", "trace:/tmp/x.gz", "tracegen:mcf@100@1"}));

  EXPECT_EQ(workload_mix("mix:3").name, table2_mix(3).name);
  EXPECT_EQ(workload_mix("mix:3").benchmarks, table2_mix(3).benchmarks);

  EXPECT_THROW(workload_mix(""), std::invalid_argument);
  EXPECT_THROW(workload_mix("mix:12"), std::out_of_range);
  EXPECT_THROW(workload_mix("art,,mcf"), std::invalid_argument);
  EXPECT_THROW(workload_mix("trace:"), std::invalid_argument);
  EXPECT_THROW(workload_mix("tracegen:art"), std::invalid_argument);        // no @records
  EXPECT_THROW(workload_mix("tracegen:art@0"), std::invalid_argument);      // zero records
  EXPECT_THROW(workload_mix("tracegen:nosuch@10"), std::invalid_argument);  // bad profile
  EXPECT_THROW(workload_mix("tracegen:art@ten"), std::invalid_argument);
}

// The one workload-to-cores rule: core-major, and the core count must
// divide the list.
TEST(TraceResolve, ThreadsPerCoreRule) {
  const Mix four = workload_mix("art,mcf,tracegen:mgrid@100,trace:/tmp/x.gz");
  EXPECT_EQ(threads_per_core(four, 1), 4u);
  EXPECT_EQ(threads_per_core(four, 2), 2u);
  EXPECT_EQ(threads_per_core(four, 4), 1u);
  EXPECT_THROW(threads_per_core(four, 0), std::invalid_argument);
  EXPECT_THROW(threads_per_core(four, 3), std::invalid_argument);
  EXPECT_THROW(threads_per_core(Mix{}, 1), std::invalid_argument);
  EXPECT_EQ(threads_per_core(workload_mix("mix:2"), 2), 2u);
  EXPECT_THROW(workload_mix("mix:9x"), std::invalid_argument);
  EXPECT_THROW(workload_mix("tracegen:art@500x"), std::invalid_argument);
}

// simulate's path for a trace list: resolve, split over cores, run.
TEST(TraceResolve, TracegenWorkloadRunsThroughTheCoreSplit) {
  const Mix mix = workload_mix("tracegen:art@500@11,tracegen:mcf@500@13");
  MachineConfig cfg = baseline32_config();
  cfg.num_cores = 2;
  cfg.num_threads = threads_per_core(mix, cfg.num_cores);
  ASSERT_EQ(cfg.num_threads, 1u);
  const RunResult r = CmpMachine(cfg, resolve_mix_benchmarks(mix)).run(2000, 0, 500);
  ASSERT_EQ(r.threads.size(), 2u);
  EXPECT_EQ(r.threads[0].benchmark, "tracegen:art@500@11");
  EXPECT_EQ(r.threads[1].benchmark, "tracegen:mcf@500@13");
  for (const auto& t : r.threads) EXPECT_GT(t.committed, 0u);
}

TEST(TraceResolve, BenchmarkNameRoundTrips) {
  const Benchmark b = resolve_benchmark("tracegen:art@100@1");
  EXPECT_EQ(b.name, "tracegen:art@100@1");
  // The memo hands back the same shared workload on the second resolution.
  const Benchmark c = resolve_benchmark(b.name);
  EXPECT_EQ(b.program.get(), c.program.get());
}

// -- campaign integration ---------------------------------------------------

CampaignSpec trace_spec(const std::string& workload) {
  const Mix mix = workload_mix(workload);
  CampaignSpec spec;
  spec.name = "trace_test";
  spec.columns = {{"Baseline_32", baseline32_config(), 0},
                  {"R-ROB16", two_level_config(RobScheme::kReactive, 16), 0}};
  for (auto& c : spec.columns)
    c.config.num_threads = static_cast<u32>(mix.benchmarks.size());
  spec.mixes = {mix};
  spec.lengths = {{1500, 300}};
  return spec;
}

std::string jsonl_of(const CampaignResult& result) {
  std::string out;
  for (const JobRecord& rec : result.records) out += to_json_line(rec) + "\n";
  return out;
}

TEST(TraceCampaign, ByteIdenticalAcrossWorkerCountsAndInvocations) {
  const CampaignSpec spec = trace_spec("tracegen:art@400@3,tracegen:mcf@400@4");
  EngineOptions serial;
  serial.jobs = 1;
  EngineOptions parallel;
  parallel.jobs = 4;

  // Each run simulates afresh instead of copying the previous one's cells.
  runner::clear_cell_memo();
  const std::string first = jsonl_of(run_campaign(spec, serial));
  runner::clear_cell_memo();
  const std::string wide = jsonl_of(run_campaign(spec, parallel));
  runner::clear_cell_memo();
  const std::string again = jsonl_of(run_campaign(spec, serial));
  EXPECT_EQ(first, wide);
  EXPECT_EQ(first, again);
  EXPECT_NE(first.find("\"trace.records_decoded\""), std::string::npos);
  EXPECT_NE(first.find("\"trace.t0.content_hash\""), std::string::npos);
  EXPECT_NE(first.find("\"trace.t1.content_hash\""), std::string::npos);
}

TEST(TraceCampaign, MissingTraceFileIsStructuredFailure) {
  const CampaignSpec spec = trace_spec("trace:" + temp_file("nope.trace") + ",art");
  const CampaignResult result = run_campaign(spec, EngineOptions{});
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.failed, 2u);
  for (const JobRecord& rec : result.records) {
    EXPECT_EQ(rec.status, JobStatus::kFailed);
    EXPECT_NE(rec.error.find("cannot open trace file"), std::string::npos) << rec.error;
  }
}

TEST(TraceCampaign, TruncatedTraceFileIsStructuredFailure) {
  auto bytes = records_to_bytes(synthesize_records("art", 20, 1));
  bytes.resize(bytes.size() - 5);
  const std::string path = temp_file("job_truncated.trace");
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));

  const CampaignSpec spec = trace_spec("trace:" + path + ",art");
  const CampaignResult result = run_campaign(spec, EngineOptions{});
  ASSERT_EQ(result.records.size(), 2u);
  for (const JobRecord& rec : result.records) {
    EXPECT_EQ(rec.status, JobStatus::kFailed);
    EXPECT_NE(rec.error.find("mid-record"), std::string::npos) << rec.error;
  }
}

}  // namespace
}  // namespace tlrob::trace

// Tests for the optional extensions: early register release (ref [24] of the
// paper), the CLI configuration-override layer and the per-instruction
// stage instants of the Chrome trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "runner/json.hpp"
#include "sim/cmp.hpp"
#include "sim/config_override.hpp"
#include "sim/experiment.hpp"
#include "sim/smt_sim.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob {
namespace {

TEST(EarlyRelease, ReaderCountsTrackRenameAndExecution) {
  RenameUnit ru(RenameConfig{224, 224, 1, false});
  static StaticInst producer;
  producer.op = OpClass::kIntAlu;
  producer.dest = ireg(1);
  static StaticInst consumer;
  consumer.op = OpClass::kIntAlu;
  consumer.dest = ireg(2);
  consumer.src[0] = ireg(1);

  DynInst p;
  p.si = &producer;
  p.op = producer.op;
  ru.rename(p);
  DynInst c;
  c.si = &consumer;
  c.op = consumer.op;
  ru.rename(c);
  EXPECT_EQ(ru.pending_readers(p.dest_phys), 1u);
  ru.consumers_read(c);  // consumer executes
  EXPECT_EQ(ru.pending_readers(p.dest_phys), 0u);
}

TEST(EarlyRelease, EarlyFreeSkipsCommitRelease) {
  RenameUnit ru(RenameConfig{224, 224, 1, false});
  static StaticInst w;
  w.op = OpClass::kIntAlu;
  w.dest = ireg(1);
  DynInst a;
  a.si = &w;
  a.op = w.op;
  ru.rename(a);
  DynInst b;
  b.si = &w;
  b.op = w.op;
  ru.rename(b);  // b.prev = a's register
  const u32 free_before = ru.free_int(0);
  ru.early_free_prev(b);
  EXPECT_TRUE(b.prev_freed_early);
  EXPECT_EQ(ru.free_int(0), free_before + 1);
  ru.commit_free(b);  // must not double-free
  EXPECT_EQ(ru.free_int(0), free_before + 1);
}

TEST(EarlyRelease, FiresOnMemoryBoundRunAndStaysCorrect) {
  MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);
  cfg.early_register_release = true;
  SmtCore core(cfg, mix_benchmarks(table2_mix(1)));
  const RunResult r = core.run(15000);
  EXPECT_GT(run_counter(r, "core.rename.early_released"), 0u);
  EXPECT_EQ(run_counter(r, "core.commit.wrong_path_bug"), 0u);
  for (const auto& t : r.threads) EXPECT_GT(t.committed, 0u);
}

TEST(EarlyRelease, DeterministicWithFeatureOn) {
  auto run_once = [] {
    MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);
    cfg.early_register_release = true;
    SmtCore core(cfg, mix_benchmarks(table2_mix(2)));
    return core.run(5000);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.counters, b.counters);
}

TEST(EarlyRelease, RejectsFlushCombination) {
  MachineConfig cfg = baseline32_config();
  cfg.early_register_release = true;
  cfg.fetch_policy = FetchPolicyKind::kFlush;
  EXPECT_THROW(SmtCore(cfg, mix_benchmarks(table2_mix(1))), std::invalid_argument);
  // The rule is MachineConfig::validate()'s, and its error names both knobs.
  try {
    cfg.validate();
    ADD_FAILURE() << "validate() accepted FLUSH with early register release";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fetch_policy"), std::string::npos) << what;
    EXPECT_NE(what.find("early_register_release"), std::string::npos) << what;
  }
}

TEST(ConfigOverride, ParsesSchemesAndPolicies) {
  EXPECT_EQ(parse_scheme("rrob"), RobScheme::kReactive);
  EXPECT_EQ(parse_scheme("relaxed"), RobScheme::kRelaxedReactive);
  EXPECT_EQ(parse_scheme("cdr"), RobScheme::kCdr);
  EXPECT_EQ(parse_scheme("prob"), RobScheme::kPredictive);
  EXPECT_EQ(parse_scheme("baseline"), RobScheme::kBaseline);
  EXPECT_THROW(parse_scheme("bogus"), std::invalid_argument);
  EXPECT_EQ(parse_fetch_policy("icount"), FetchPolicyKind::kIcount);
  EXPECT_EQ(parse_fetch_policy("rr"), FetchPolicyKind::kRoundRobin);
  EXPECT_THROW(parse_fetch_policy("bogus"), std::invalid_argument);
}

TEST(ConfigOverride, AppliesMachineKnobs) {
  const Options opts = Options::from_tokens(
      {"threads=2", "rob1=64", "rob2=128", "iq=32", "scheme=cdr", "threshold=7",
       "policy=stall", "l2_kb=1024", "mem_lat=300", "shared_regfile=1", "seed=99",
       "lease=1234", "mshr=8"});
  const MachineConfig cfg = apply_overrides(baseline32_config(), opts);
  EXPECT_EQ(cfg.num_threads, 2u);
  EXPECT_EQ(cfg.rob_first_level, 64u);
  EXPECT_EQ(cfg.rob_second_level, 128u);
  EXPECT_EQ(cfg.iq_entries, 32u);
  EXPECT_EQ(cfg.rob.scheme, RobScheme::kCdr);
  EXPECT_EQ(cfg.rob.dod_threshold, 7u);
  EXPECT_EQ(cfg.fetch_policy, FetchPolicyKind::kStall);
  EXPECT_EQ(cfg.memory.l2.size_bytes, u64{1024} << 10);
  EXPECT_EQ(cfg.memory.channel.first_chunk, 300u);
  EXPECT_TRUE(cfg.shared_regfile);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.rob.lease_limit, 1234u);
  EXPECT_EQ(cfg.memory.channel.mshr_entries, 8u);
}

TEST(ConfigOverride, RejectsValuesOutOfRange) {
  const std::pair<std::string, std::string> cases[] = {
      {"rob1=4294967328", "rob1"},
      {"threads=4294967296", "threads"},
      {"cores=4294967298", "cores"},
      {"l2_kb=18014398509481985", "l2_kb"},
      {"l1d_kb=18446744073709551615", "l1d_kb"},
      {"llc=8192:4294967312", "llc.geo.ways"},
      {"llc=18014398509481985", "llc.geo.size_bytes"},
      {"dram=2:8:240:160:100:1", "dram spec"},
  };
  for (const auto& [token, named] : cases) {
    try {
      apply_overrides(baseline32_config(), Options::from_tokens({token}));
      ADD_FAILURE() << token << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos) << e.what();
    }
  }
  // The largest value of each type still fits.
  const Options largest = Options::from_tokens({"rob1=4294967295", "l2_kb=18014398509481983"});
  const MachineConfig cfg = apply_overrides(baseline32_config(), largest);
  EXPECT_EQ(cfg.rob_first_level, 4294967295u);
  EXPECT_EQ(cfg.memory.l2.size_bytes, u64{18014398509481983} << 10);
}

// Every knob the table flags nonzero fails validate(), naming the field.
TEST(ConfigOverride, EveryNonzeroKnobRejectsZero) {
  const MachineConfig base = two_level_config(RobScheme::kReactive, 16);
  EXPECT_NO_THROW(base.validate());
  std::vector<std::string> rows;
  for_each_knob(base, [&](const Knob& k, const auto&) {
    if ((k.flags & kNonzero) != 0) rows.push_back(k.name);
  });
  EXPECT_EQ(rows.size(), 16u);
  for (const std::string& name : rows) {
    MachineConfig cfg = base;
    for_each_knob(cfg, [&]<typename T>(const Knob& k, T& field) {
      if constexpr (std::is_integral_v<T>)
        if (name == k.name) field = 0;
    });
    try {
      cfg.validate();
      ADD_FAILURE() << name << "=0 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "MachineConfig: " + name + " must be nonzero");
    }
  }
}

// A machine with a shared backend has its DRAM geometry checked by
// validate(), naming the field; one without a backend has no DRAM model.
TEST(ConfigOverride, SharedBackendValidatesDramGeometry) {
  const MachineConfig base = cmp_config(2, RobScheme::kReactive, 16);
  EXPECT_TRUE(base.has_shared_backend());
  EXPECT_FALSE(baseline32_config().has_shared_backend());
  EXPECT_NO_THROW(base.validate());
  const auto error = [](const MachineConfig& cfg) -> std::string {
    try {
      cfg.validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  const std::pair<u32 DramConfig::*, std::string> fields[] = {
      {&DramConfig::channels, "channels"},
      {&DramConfig::banks_per_channel, "banks_per_channel"},
      {&DramConfig::row_bytes, "row_bytes"}};
  for (const auto& [field, name] : fields) {
    MachineConfig cfg = base;
    cfg.dram.*field = 3;
    EXPECT_EQ(error(cfg), "MachineConfig: dram." + name + " must be a power of two");
  }
  MachineConfig cfg = base;
  cfg.dram.row_bytes = cfg.llc.geo.line_bytes / 2;
  EXPECT_EQ(error(cfg), "MachineConfig: dram.row_bytes must be at least llc.geo.line_bytes (128)");
  MachineConfig single = baseline32_config();
  single.dram.channels = 3;
  EXPECT_NO_THROW(single.validate());
}

// Every predictor table indexes by mask and every history shifts into a
// fixed-width register, so validate() rejects the shapes the structures
// cannot hold, naming the knob rather than the structure.
TEST(MachineConfig, PredictorShapesAreCheckedNamingTheKnob) {
  const auto error = [](const MachineConfig& cfg) -> std::string {
    try {
      cfg.validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  const MachineConfig base = two_level_config(RobScheme::kPredictive, 16);
  EXPECT_EQ(error(base), "accepted");
  const std::pair<void (*)(MachineConfig&), std::string> cases[] = {
      {[](MachineConfig& c) { c.rob.predictor_entries = 3; },
       "rob.predictor_entries (predictor_entries) must be a power of two"},
      {[](MachineConfig& c) { c.rob.predictor_entries = 0; },
       "rob.predictor_entries (predictor_entries) must be a power of two"},
      {[](MachineConfig& c) { c.predictor.gshare_entries = 2000; },
       "predictor.gshare_entries must be a power of two"},
      {[](MachineConfig& c) { c.load_hit_entries = 1000; },
       "load_hit_entries must be a power of two"},
      {[](MachineConfig& c) { c.predictor.btb_ways = 3; },
       "predictor.btb_ways must divide predictor.btb_entries (2048)"},
      {[](MachineConfig& c) { c.predictor.btb_ways = 0; },
       "predictor.btb_ways must divide predictor.btb_entries (2048)"},
      {[](MachineConfig& c) { c.predictor.btb_entries = 24; },
       "predictor.btb_entries gives 12 sets; the set count must be a nonzero power of two"},
      {[](MachineConfig& c) { c.predictor.btb_entries = 0; },
       "predictor.btb_entries gives 0 sets; the set count must be a nonzero power of two"},
      {[](MachineConfig& c) { c.predictor.history_bits = 17; },
       "predictor.history_bits must be at most 16"},
      {[](MachineConfig& c) { c.predictor.history_bits = 32; },
       "predictor.history_bits must be at most 16"},
      {[](MachineConfig& c) { c.load_hit_history = 32; },
       "load_hit_history must be at most 31"},
  };
  for (const auto& [perturb, want] : cases) {
    MachineConfig cfg = base;
    perturb(cfg);
    EXPECT_EQ(error(cfg), "MachineConfig: " + want);
  }
  // The widest histories the registers hold, and the smallest tables.
  MachineConfig edge = base;
  edge.predictor.history_bits = 16;
  edge.load_hit_history = 31;
  edge.rob.predictor_entries = 1;
  edge.predictor.gshare_entries = 1;
  edge.load_hit_entries = 1;
  edge.predictor.btb_entries = 2;
  EXPECT_EQ(error(edge), "accepted");
}

// describe() prints the machine from the knob table: one line per knob, in
// table order, each led by the knob's path; an enum prints by name.
TEST(ConfigOverride, DescribePrintsEveryKnob) {
  const MachineConfig cfg = cmp_config(2, RobScheme::kReactive, 16);
  const std::string text = describe(cfg);
  std::istringstream lines(text);
  std::string line;
  for_each_knob(cfg, [&](const Knob& k, const auto&) {
    ASSERT_TRUE(std::getline(lines, line)) << k.name << " missing";
    EXPECT_EQ(line.rfind(std::string(k.name) + ' ', 0), 0u) << k.name << ": " << line;
  });
  EXPECT_FALSE(std::getline(lines, line)) << "extra line: " << line;
  std::string scheme = "rob.scheme (scheme)", lease = "rob.lease_limit (lease)";
  scheme.resize(kDescribeLabelWidth, ' ');
  lease.resize(kDescribeLabelWidth, ' ');
  EXPECT_NE(text.find("\n" + scheme + " rrob\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\n" + lease + ' ' + std::to_string(cfg.rob.lease_limit) + '\n'),
            std::string::npos)
      << text;
}

// Every value describe() prints is in the unit of the CLI key it names, so
// feeding each line back as `key=value` (the key in parentheses, or the path
// when that is the key) rebuilds every keyed field, KiB sizes included.
TEST(ConfigOverride, DescribeRoundTripsThroughOverrides) {
  MachineConfig cfg = cmp_config(2, RobScheme::kReactive, 8);
  cfg.memory.l1i.size_bytes = 32 << 10;  // not the default 64 KiB
  Options printed;
  std::istringstream lines(describe(cfg));
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string key, value;
    fields >> key >> value;
    if (value.front() == '(') {
      key = value.substr(1, value.size() - 2);
      fields >> value;
    }
    printed.set(key, value);
  }
  const MachineConfig rebuilt = apply_overrides(baseline32_config(), printed);
  auto keyed = [](const MachineConfig& c) {
    std::vector<std::pair<std::string, u64>> out;
    for_each_knob(c, [&](const Knob& k, const auto& v) {
      if (k.cli != nullptr) out.emplace_back(k.name, static_cast<u64>(v));
    });
    return out;
  };
  EXPECT_EQ(keyed(rebuilt), keyed(cfg));
  EXPECT_EQ(rebuilt.memory.l1i.size_bytes, 32u << 10);
}

TEST(ConfigOverride, LeavesDefaultsAlone) {
  const MachineConfig base = baseline32_config();
  const MachineConfig cfg = apply_overrides(base, Options::from_tokens({}));
  EXPECT_EQ(cfg.num_threads, base.num_threads);
  EXPECT_EQ(cfg.rob_first_level, base.rob_first_level);
  EXPECT_EQ(cfg.fetch_policy, base.fetch_policy);
  EXPECT_EQ(cfg.seed, base.seed);
}

TEST(ConfigOverride, OverriddenMachineRuns) {
  const Options opts = Options::from_tokens({"threads=2", "scheme=rrob", "threshold=12"});
  MachineConfig cfg = apply_overrides(baseline32_config(), opts);
  cfg.rob_second_level = 384;
  SmtCore core(cfg, {spec_benchmark("art"), spec_benchmark("crafty")});
  const RunResult r = core.run(4000);
  EXPECT_GT(r.threads[0].committed, 0u);
  EXPECT_GT(r.threads[1].committed, 0u);
}

// The per-instruction stage instants SmtCore records inside a writer's
// instruction window.
constexpr std::array<const char*, 6> kStages = {"fetch",    "dispatch", "issue",
                                                "complete", "commit",   "squashed"};

std::string trace_json(const std::vector<const obs::ChromeTraceWriter*>& writers) {
  std::ostringstream os;
  obs::ChromeTraceWriter::write_merged(os, writers);
  return os.str();
}

std::vector<runner::JsonValue> stage_instants(const std::string& json) {
  const runner::JsonValue doc = runner::parse_json(json);
  std::vector<runner::JsonValue> out;
  for (const runner::JsonValue& e : doc.at("traceEvents").items)
    if (e.at("ph").as_string() == "i" &&
        std::find(kStages.begin(), kStages.end(), e.at("name").as_string()) != kStages.end())
      out.push_back(e);
  return out;
}

TEST(Tracer, EmitsEventsOnlyInsideWindow) {
  MachineConfig cfg = single_thread_config();
  SmtCore core(cfg, {spec_benchmark("art")});
  obs::ChromeTraceWriter trace;
  // Mid-run window, well past the cold I-cache fill that silences the first
  // few hundred cycles.
  trace.set_instruction_window(2000, 2400);
  core.attach_chrome_trace(&trace);
  core.run(3000);
  for (const char* stage : {"fetch", "dispatch", "issue", "complete", "commit"})
    EXPECT_GT(trace.count_named('i', stage), 0u) << stage;
  const std::vector<runner::JsonValue> instants = stage_instants(trace_json({&trace}));
  ASSERT_FALSE(instants.empty());
  bool saw_addr = false;
  for (const runner::JsonValue& e : instants) {
    EXPECT_GE(e.at("ts").as_u64(), 2000u);
    EXPECT_LT(e.at("ts").as_u64(), 2400u);
    const runner::JsonValue& args = e.at("args");
    EXPECT_FALSE(args.at("tseq").lexeme.empty());
    EXPECT_FALSE(args.at("pc").lexeme.empty());
    // addr exactly on memory ops.
    const auto op = static_cast<OpClass>(args.at("op").as_u64());
    EXPECT_EQ(args.at("addr").lexeme.empty(), !is_memory(op));
    saw_addr |= !args.at("addr").lexeme.empty();
  }
  EXPECT_TRUE(saw_addr);
}

// A one-cycle window [W, W+1) records exactly the instants a whole-run
// window records at cycle W: none at W-1 or W+1, none missing at W.
TEST(Tracer, OneCycleWindowRecordsExactlyThatCycle) {
  const MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);
  const auto benches = mix_benchmarks(table2_mix(3));
  auto traced_run = [&](Cycle start, Cycle end) {
    SmtCore core(cfg, benches);
    obs::ChromeTraceWriter w;
    w.set_instruction_window(start, end);
    core.attach_chrome_trace(&w);
    core.run(2000);
    return stage_instants(trace_json({&w}));
  };
  const std::vector<runner::JsonValue> whole = traced_run(0, kNeverCycle);
  ASSERT_GT(whole.size(), 1000u);
  const u64 w = whole[whole.size() / 2].at("ts").as_u64();
  std::vector<std::string> expected;
  for (const runner::JsonValue& e : whole)
    if (e.at("ts").as_u64() == w) expected.push_back(e.at("name").as_string());
  std::vector<std::string> got;
  for (const runner::JsonValue& e : traced_run(w, w + 1)) {
    EXPECT_EQ(e.at("ts").as_u64(), w);
    got.push_back(e.at("name").as_string());
  }
  EXPECT_EQ(got, expected);
}

// The per-instruction instants leave the idle-cycle fast-forward on: they
// only happen in state-changing ticks, so a traced run that skips idle cycles
// writes exactly the trace of a run pinned to cycle-by-cycle execution.
TEST(Tracer, TracedRunFastForwardsWithThePinnedRunsLog) {
  const MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);
  const auto benches = mix_benchmarks(table2_mix(3));
  SmtCore traced(cfg, benches);
  obs::ChromeTraceWriter log;
  log.set_instruction_window(0, kNeverCycle);
  traced.attach_chrome_trace(&log);
  const RunResult a = traced.run(2000);
  SmtCore pinned(cfg, benches);
  obs::ChromeTraceWriter reference;
  reference.set_instruction_window(0, kNeverCycle);
  pinned.attach_chrome_trace(&reference);
  pinned.pin_for_test();
  const RunResult b = pinned.run(2000);

  EXPECT_GT(traced.fast_forwarded_cycles(), 0u);
  EXPECT_EQ(pinned.fast_forwarded_cycles(), 0u);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_GT(log.count_named('X', "second_level_grant"), 0u);
  EXPECT_GT(log.count_named('i', "squash"), 0u);
  for (const char* stage : kStages) EXPECT_GT(log.count_named('i', stage), 0u) << stage;
  // Not EXPECT_EQ: megabytes of diff.
  EXPECT_TRUE(trace_json({&log}) == trace_json({&reference}));
}

// The same on a CMP, where each core sleeps on its own while its peers run.
TEST(Tracer, CmpTracedRunFastForwardsWithThePinnedRunsTrace) {
  MachineConfig cfg = cmp_config(2, RobScheme::kReactive, 16);
  cfg.num_threads = 2;
  const auto benches = mix_benchmarks(table2_mix(2));
  auto traced_run = [&](bool pin, std::vector<obs::ChromeTraceWriter>& writers) {
    CmpMachine machine(cfg, benches);
    std::vector<obs::ChromeTraceWriter*> per_core;
    for (obs::ChromeTraceWriter& w : writers) {
      w.set_instruction_window(0, kNeverCycle);
      per_core.push_back(&w);
    }
    obs::ChromeTraceWriter backend;
    machine.attach_chrome_trace(per_core, &backend);
    if (pin) machine.core(0).pin_for_test();
    machine.run(2000);
    u64 skipped = 0;
    for (u32 c = 0; c < machine.num_cores(); ++c)
      skipped += machine.core(c).fast_forwarded_cycles();
    return skipped;
  };
  std::vector<obs::ChromeTraceWriter> ff(cfg.num_cores), pinned(cfg.num_cores);
  EXPECT_GT(traced_run(false, ff), 0u);
  EXPECT_EQ(traced_run(true, pinned), 0u);
  for (u32 c = 0; c < cfg.num_cores; ++c) {
    EXPECT_GT(ff[c].count_named('i', "commit"), 0u) << "core " << c;
    EXPECT_TRUE(trace_json({&ff[c]}) == trace_json({&pinned[c]})) << "core " << c;
  }
}

// On a CMP every core's writer takes the window: per-instruction instants
// appear under every core's pid.
TEST(Tracer, CmpInstantsAppearUnderEveryCore) {
  MachineConfig cfg = cmp_config(4, RobScheme::kReactive, 16);
  cfg.num_threads = 1;
  CmpMachine machine(cfg, mix_benchmarks(table2_mix(2)));
  std::vector<obs::ChromeTraceWriter> writers(cfg.num_cores);
  std::vector<obs::ChromeTraceWriter*> per_core;
  for (obs::ChromeTraceWriter& w : writers) {
    w.set_instruction_window(2500, 3000);
    per_core.push_back(&w);
  }
  obs::ChromeTraceWriter backend;
  machine.attach_chrome_trace(per_core, &backend);
  machine.run(2000);

  std::vector<const obs::ChromeTraceWriter*> all;
  for (const obs::ChromeTraceWriter& w : writers) all.push_back(&w);
  std::set<u64> pids;
  for (const runner::JsonValue& e : stage_instants(trace_json(all))) {
    pids.insert(e.at("pid").as_u64());
    EXPECT_GE(e.at("ts").as_u64(), 2500u);
    EXPECT_LT(e.at("ts").as_u64(), 3000u);
  }
  EXPECT_EQ(pids.size(), cfg.num_cores);
  EXPECT_EQ(backend.count_named('i', "commit"), 0u);
}

TEST(Tracer, DetachedTracerIsFree) {
  MachineConfig cfg = single_thread_config();
  SmtCore core(cfg, {spec_benchmark("gzip")});
  core.run(2000);  // no writer attached: must simply work
  EXPECT_GE(core.committed(0), 2000u);
}

}  // namespace
}  // namespace tlrob

// Tests for the optional extensions: early register release (ref [24] of the
// paper) and the CLI configuration-override layer.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

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
  EXPECT_EQ(rows.size(), 13u);
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

TEST(Tracer, EmitsEventsOnlyInsideWindow) {
  MachineConfig cfg = single_thread_config();
  SmtCore core(cfg, {spec_benchmark("art")});
  std::ostringstream os;
  // Mid-run window, well past the cold I-cache fill that silences the first
  // few hundred cycles.
  core.tracer().attach(&os, 2000, 2400);
  core.run(3000);
  const std::string log = os.str();
  ASSERT_FALSE(log.empty());
  EXPECT_NE(log.find("fetch"), std::string::npos);
  EXPECT_NE(log.find("dispatch"), std::string::npos);
  EXPECT_NE(log.find("issue"), std::string::npos);
  EXPECT_NE(log.find("commit"), std::string::npos);
  // Every line starts with a cycle inside [2000, 2400).
  std::istringstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    const u64 cyc = std::strtoull(line.c_str(), nullptr, 10);
    EXPECT_GE(cyc, 2000u);
    EXPECT_LT(cyc, 2400u);
  }
}

TEST(Tracer, DetachedTracerIsFree) {
  MachineConfig cfg = single_thread_config();
  SmtCore core(cfg, {spec_benchmark("gzip")});
  core.run(2000);  // no tracer attached: must simply work
  EXPECT_GE(core.committed(0), 2000u);
}

}  // namespace
}  // namespace tlrob

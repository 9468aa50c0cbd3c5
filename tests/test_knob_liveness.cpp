// KnobLiveness: every for_each_knob row (sim/config_override.hpp) is live or
// inert by design.
//
// A live row, perturbed alone on a base machine that validate() accepts,
// moves the run: its cycles, a thread's commits or a counter outside
// audit.*. An inert row (kInertByDesign: the audit and the telemetry
// sampling period observe a run and never steer it) moves none of them. Both
// lists are closed against the table: a row in neither list, a row in both
// and an entry that names no row all fail, so a setting that nothing reads
// cannot join the table unseen. Only counters outside audit.* are compared,
// so the test holds under any $TLROB_AUDIT.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "hand_traces.hpp"
#include "sim/cmp.hpp"
#include "sim/config_override.hpp"
#include "sim/presets.hpp"
#include "workload/mixes.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob {
namespace {

constexpr u64 kInsts = 3000;
constexpr u64 kWarmup = 1000;

/// A machine and its workload, one Benchmark per hardware thread.
struct Machine {
  MachineConfig cfg;
  std::vector<Benchmark> benches;
};

std::vector<Benchmark> mix(u32 index) { return mix_benchmarks(table2_mix(index)); }

/// A base machine a knob is perturbed on.
struct Base {
  const char* name;
  Machine (*build)();
};

const Base kRrobMix1{"R-ROB16 Mix 1", [] {
  return Machine{two_level_config(RobScheme::kReactive, 16), mix(1)};
}};
const Base kAuditedMix1{"R-ROB16 Mix 1 audit=full", [] {
  Machine m = kRrobMix1.build();
  m.cfg.audit.level = AuditLevel::kFull;
  return m;
}};
// Baseline_32 on four high-IPC programs: bound by the front end.
const Base kIlp{"Baseline_32 crafty/eon/gzip/vortex", [] {
  Machine m{baseline32_config(), {}};
  for (const char* name : {"crafty", "eon", "gzip", "vortex"})
    m.benches.push_back(spec_benchmark(name));
  return m;
}};
const Base kCdrMix5{"CDR15 Mix 5", [] {
  return Machine{two_level_config(RobScheme::kCdr, 15), mix(5)};
}};
const Base kProbMix9{"P-ROB5 Mix 9", [] {
  return Machine{two_level_config(RobScheme::kPredictive, 5), mix(9)};
}};
const Base kAdaptiveMix1{"Adaptive Mix 1", [] {
  return Machine{two_level_config(RobScheme::kAdaptive, 16), mix(1)};
}};
const Base kSharedRegfile{"R-ROB16 Mix 1 shared_regfile", [] {
  Machine m = kRrobMix1.build();
  m.cfg.shared_regfile = true;
  return m;
}};
// Mix 1 on both cores: at these lengths a 64 KiB LLC moves this run, but not
// one with Mix 2 on the second core.
const Base kCmp2{"2-core R-ROB16 Mix 1 x2", [] {
  Machine m{cmp_config(2, RobScheme::kReactive, 16), mix(1)};
  for (Benchmark& b : mix(1)) m.benches.push_back(std::move(b));
  return m;
}};
// Every shipped program's code (at most 208 bytes a thread) fits even a
// 1 KiB L1I, so the L1I size is live only on a larger trace.
const Base kCodeTrace{"8 KiB straight-line code trace", [] {
  return Machine{single_thread_config(), {hand_traces::straight_line_code(2048)}};
}};

/// One knob set away from its base machine's value.
struct Perturbation {
  const char* knob;
  const Base* base;
  void (*apply)(Machine&);
};

const Perturbation kLive[] = {
    // The shape knobs change the workload with the machine: a second core
    // runs Mix 1 again, and two threads keep Mix 1's first two benchmarks.
    {"num_cores", &kRrobMix1, [](Machine& m) {
       m.cfg.num_cores = 2;
       const std::vector<Benchmark> core0 = m.benches;
       m.benches.insert(m.benches.end(), core0.begin(), core0.end());
     }},
    {"num_threads", &kRrobMix1, [](Machine& m) {
       m.cfg.num_threads = 2;
       m.benches.erase(m.benches.begin() + 2, m.benches.end());
     }},
    {"fetch_width", &kRrobMix1, [](Machine& m) { m.cfg.fetch_width = 2; }},
    {"fetch_threads", &kRrobMix1, [](Machine& m) { m.cfg.fetch_threads = 1; }},
    {"dispatch_width", &kRrobMix1, [](Machine& m) { m.cfg.dispatch_width = 2; }},
    {"issue_width", &kRrobMix1, [](Machine& m) { m.cfg.issue_width = 2; }},
    {"commit_width", &kRrobMix1, [](Machine& m) { m.cfg.commit_width = 2; }},
    {"decode_depth", &kRrobMix1, [](Machine& m) { m.cfg.decode_depth = 8; }},
    {"frontend_buffer", &kRrobMix1, [](Machine& m) { m.cfg.frontend_buffer = 4; }},
    {"rob_first_level", &kRrobMix1, [](Machine& m) { m.cfg.rob_first_level = 64; }},
    {"rob_second_level", &kRrobMix1, [](Machine& m) { m.cfg.rob_second_level = 32; }},
    {"second_level_reg_reserve", &kSharedRegfile,
     [](Machine& m) { m.cfg.second_level_reg_reserve = 90; }},
    {"iq_entries", &kRrobMix1, [](Machine& m) { m.cfg.iq_entries = 16; }},
    {"lsq_entries", &kRrobMix1, [](Machine& m) { m.cfg.lsq_entries = 8; }},
    {"int_regs", &kRrobMix1, [](Machine& m) { m.cfg.int_regs = 48; }},
    {"fp_regs", &kRrobMix1, [](Machine& m) { m.cfg.fp_regs = 48; }},
    {"shared_regfile", &kRrobMix1, [](Machine& m) { m.cfg.shared_regfile = true; }},
    {"early_register_release", &kRrobMix1,
     [](Machine& m) { m.cfg.early_register_release = true; }},
    {"fetch_policy", &kRrobMix1,
     [](Machine& m) { m.cfg.fetch_policy = FetchPolicyKind::kIcount; }},

    {"rob.scheme", &kRrobMix1, [](Machine& m) { m.cfg.rob.scheme = RobScheme::kBaseline; }},
    {"rob.dod_threshold", &kRrobMix1, [](Machine& m) { m.cfg.rob.dod_threshold = 2; }},
    {"rob.recheck_interval", &kRrobMix1, [](Machine& m) { m.cfg.rob.recheck_interval = 100; }},
    {"rob.cdr_delay", &kCdrMix5, [](Machine& m) { m.cfg.rob.cdr_delay = 256; }},
    {"rob.predictor_entries", &kProbMix9, [](Machine& m) { m.cfg.rob.predictor_entries = 1; }},
    {"rob.lease_limit", &kRrobMix1, [](Machine& m) { m.cfg.rob.lease_limit = 200; }},
    {"rob.lease_cooldown", &kRrobMix1, [](Machine& m) { m.cfg.rob.lease_cooldown = 10; }},
    {"rob.adaptive_interval", &kAdaptiveMix1,
     [](Machine& m) { m.cfg.rob.adaptive_interval = 16; }},
    {"rob.adaptive_step", &kAdaptiveMix1, [](Machine& m) { m.cfg.rob.adaptive_step = 4; }},
    {"rob.adaptive_max_extra", &kAdaptiveMix1,
     [](Machine& m) { m.cfg.rob.adaptive_max_extra = 16; }},
    {"rob.adaptive_issue_bound_threshold", &kAdaptiveMix1,
     [](Machine& m) { m.cfg.rob.adaptive_issue_bound_threshold = 2; }},

    {"memory.l1i.size_bytes", &kCodeTrace,
     [](Machine& m) { m.cfg.memory.l1i.size_bytes = 4 << 10; }},
    {"memory.l1i.ways", &kIlp, [](Machine& m) { m.cfg.memory.l1i.ways = 4; }},
    {"memory.l1i.line_bytes", &kIlp, [](Machine& m) { m.cfg.memory.l1i.line_bytes = 128; }},
    {"memory.l1d.size_bytes", &kRrobMix1,
     [](Machine& m) { m.cfg.memory.l1d.size_bytes = 4 << 10; }},
    {"memory.l1d.ways", &kRrobMix1, [](Machine& m) { m.cfg.memory.l1d.ways = 1; }},
    {"memory.l1d.line_bytes", &kRrobMix1, [](Machine& m) { m.cfg.memory.l1d.line_bytes = 64; }},
    {"memory.l2.size_bytes", &kRrobMix1,
     [](Machine& m) { m.cfg.memory.l2.size_bytes = 64 << 10; }},
    {"memory.l2.ways", &kRrobMix1, [](Machine& m) { m.cfg.memory.l2.ways = 1; }},
    {"memory.l2.line_bytes", &kRrobMix1, [](Machine& m) { m.cfg.memory.l2.line_bytes = 64; }},
    {"memory.l1d_hit_latency", &kRrobMix1,
     [](Machine& m) { m.cfg.memory.l1d_hit_latency = 3; }},
    {"memory.l2_hit_latency", &kRrobMix1, [](Machine& m) { m.cfg.memory.l2_hit_latency = 30; }},
    {"memory.channel.bus_bytes", &kRrobMix1,
     [](Machine& m) { m.cfg.memory.channel.bus_bytes = 2; }},
    {"memory.channel.first_chunk", &kRrobMix1,
     [](Machine& m) { m.cfg.memory.channel.first_chunk = 250; }},
    {"memory.channel.interchunk", &kRrobMix1,
     [](Machine& m) { m.cfg.memory.channel.interchunk = 8; }},
    {"memory.channel.critical_bytes", &kRrobMix1,
     [](Machine& m) { m.cfg.memory.channel.critical_bytes = 0; }},
    {"memory.channel.mshr_entries", &kRrobMix1,
     [](Machine& m) { m.cfg.memory.channel.mshr_entries = 2; }},

    {"llc.enabled", &kRrobMix1, [](Machine& m) { m.cfg.llc.enabled = true; }},
    {"llc.geo.size_bytes", &kCmp2, [](Machine& m) { m.cfg.llc.geo.size_bytes = 64 << 10; }},
    {"llc.geo.ways", &kCmp2, [](Machine& m) { m.cfg.llc.geo.ways = 1; }},
    {"llc.geo.line_bytes", &kCmp2, [](Machine& m) { m.cfg.llc.geo.line_bytes = 256; }},
    {"llc.hit_latency", &kCmp2, [](Machine& m) { m.cfg.llc.hit_latency = 60; }},
    {"llc.mshr_entries", &kCmp2, [](Machine& m) { m.cfg.llc.mshr_entries = 2; }},

    {"dram.channels", &kCmp2, [](Machine& m) { m.cfg.dram.channels = 1; }},
    {"dram.banks_per_channel", &kCmp2, [](Machine& m) { m.cfg.dram.banks_per_channel = 1; }},
    {"dram.row_bytes", &kCmp2, [](Machine& m) { m.cfg.dram.row_bytes = 128; }},
    {"dram.tcas", &kCmp2, [](Machine& m) { m.cfg.dram.tcas = 480; }},
    {"dram.trcd", &kCmp2, [](Machine& m) { m.cfg.dram.trcd = 480; }},
    {"dram.trp", &kCmp2, [](Machine& m) { m.cfg.dram.trp = 400; }},
    {"dram.bus_bytes", &kCmp2, [](Machine& m) { m.cfg.dram.bus_bytes = 2; }},
    {"dram.interchunk", &kCmp2, [](Machine& m) { m.cfg.dram.interchunk = 8; }},
    {"dram.critical_bytes", &kCmp2, [](Machine& m) { m.cfg.dram.critical_bytes = 0; }},
    {"dram.open_page", &kCmp2, [](Machine& m) { m.cfg.dram.open_page = false; }},

    {"predictor.gshare_entries", &kIlp,
     [](Machine& m) { m.cfg.predictor.gshare_entries = 16; }},
    {"predictor.history_bits", &kIlp, [](Machine& m) { m.cfg.predictor.history_bits = 2; }},
    {"predictor.btb_entries", &kIlp, [](Machine& m) { m.cfg.predictor.btb_entries = 4; }},
    {"predictor.btb_ways", &kIlp, [](Machine& m) { m.cfg.predictor.btb_ways = 1; }},
    {"load_hit_entries", &kRrobMix1, [](Machine& m) { m.cfg.load_hit_entries = 2; }},
    {"load_hit_history", &kRrobMix1, [](Machine& m) { m.cfg.load_hit_history = 0; }},

    {"seed", &kRrobMix1, [](Machine& m) { m.cfg.seed += 1; }},
};

/// Observers by design: the invariant audit and the interval sampler read
/// the run and never steer it.
const Perturbation kInertByDesign[] = {
    {"audit.level", &kAuditedMix1, [](Machine& m) { m.cfg.audit.level = AuditLevel::kOff; }},
    {"audit.cheap_interval", &kAuditedMix1, [](Machine& m) { m.cfg.audit.cheap_interval = 3; }},
    {"audit.full_interval", &kAuditedMix1, [](Machine& m) { m.cfg.audit.full_interval = 16; }},
    {"audit.abort_on_violation", &kAuditedMix1,
     [](Machine& m) { m.cfg.audit.abort_on_violation = !m.cfg.audit.abort_on_violation; }},
    {"telemetry.sample_interval", &kRrobMix1,
     [](Machine& m) { m.cfg.telemetry.sample_interval = 100; }},
};

/// The knob rows whose describe() line differs between two machines.
std::vector<std::string> changed_rows(const MachineConfig& a, const MachineConfig& b) {
  std::istringstream la(describe(a)), lb(describe(b));
  std::vector<std::string> rows;
  for (std::string x, y; std::getline(la, x) && std::getline(lb, y);)
    if (x != y) rows.push_back(x.substr(0, x.find(' ')));
  return rows;
}

/// The first thing two runs disagree on outside audit.*, or "" when they
/// agree on cycles, every thread's commits and every other counter.
std::string first_difference(const RunResult& a, const RunResult& b) {
  const auto moved = [](const std::string& what, u64 x, u64 y) {
    return what + " " + std::to_string(x) + " -> " + std::to_string(y);
  };
  if (a.cycles != b.cycles) return moved("cycles", a.cycles, b.cycles);
  if (a.threads.size() != b.threads.size())
    return moved("threads", a.threads.size(), b.threads.size());
  for (size_t t = 0; t < a.threads.size(); ++t)
    if (a.threads[t].committed != b.threads[t].committed)
      return moved("thread " + std::to_string(t) + " commits", a.threads[t].committed,
                   b.threads[t].committed);
  std::set<std::string> names;
  for (const auto* counters : {&a.counters, &b.counters})
    for (const auto& [name, value] : *counters)
      if (!name.starts_with("audit.")) names.insert(name);
  for (const std::string& name : names) {
    const auto x = a.counters.find(name), y = b.counters.find(name);
    if (x == a.counters.end() || y == b.counters.end())
      return name + " present in one run only";
    if (x->second != y->second) return moved(name, x->second, y->second);
  }
  return "";
}

RunResult run(const Machine& m) { return CmpMachine(m.cfg, m.benches).run(kInsts, 0, kWarmup); }

/// Runs each perturbation of `list` beside its base machine (each base runs
/// once) and calls check(p, what moved), "" when nothing did.
template <typename Check>
void run_each(std::span<const Perturbation> list, Check check) {
  std::map<const Base*, RunResult> base_runs;
  for (const Perturbation& p : list) {
    SCOPED_TRACE(std::string(p.knob) + " on " + p.base->name);
    const Machine base = p.base->build();
    Machine m = base;
    p.apply(m);
    // The perturbation sets exactly its own row, to a machine validate()
    // accepts.
    EXPECT_EQ(changed_rows(base.cfg, m.cfg), std::vector<std::string>{p.knob});
    EXPECT_NO_THROW(m.cfg.validate());
    auto it = base_runs.find(p.base);
    if (it == base_runs.end()) it = base_runs.emplace(p.base, run(base)).first;
    check(p, first_difference(it->second, run(m)));
  }
}

TEST(KnobLiveness, EveryRowIsLiveOrInertByDesign) {
  std::vector<std::string> rows;
  const MachineConfig table1;
  for_each_knob(table1, [&](const Knob& k, const auto&) { rows.push_back(k.name); });
  std::map<std::string, int> listed;
  for (const Perturbation& p : kLive) ++listed[p.knob];
  for (const Perturbation& p : kInertByDesign) ++listed[p.knob];
  for (const std::string& row : rows) {
    EXPECT_NE(listed[row], 0) << row << " is in neither kLive nor kInertByDesign: show it live "
                              << "on a base machine, say why it is inert, or delete it";
    EXPECT_LE(listed[row], 1) << row << " is listed twice";
  }
  for (const auto& [knob, count] : listed)
    EXPECT_NE(std::find(rows.begin(), rows.end(), knob), rows.end())
        << knob << " names no for_each_knob row";
}

TEST(KnobLiveness, EveryLiveKnobMovesARun) {
  run_each(kLive, [](const Perturbation& p, const std::string& moved) {
    EXPECT_NE(moved, "") << p.knob << " changed nothing outside audit.* on " << p.base->name;
  });
}

TEST(KnobLiveness, InertKnobsMoveNothingOutsideAudit) {
  run_each(kInertByDesign, [](const Perturbation& p, const std::string& moved) {
    EXPECT_EQ(moved, "") << p.knob << " is inert by design but moved " << p.base->name;
  });
}

}  // namespace
}  // namespace tlrob

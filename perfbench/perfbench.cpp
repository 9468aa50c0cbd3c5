// tlrob-perfbench: one iteration of one benchmark workload, reported as a
// single JSON line on stdout. perfbench/run.py repeats it for the requested
// time and aggregates; perfbench/README.md defines every workload and metric.
//
//   tlrob-perfbench --workload paper_repro|cmp_membound|smt_ilp
//                   [--seed N] [--trace 0|1] [--length full|tiny]
//                   [--fixtures DIR] [--record]
//
// Untraced iterations (--trace 0) report the end-to-end metrics. Traced
// iterations arm the interval sampler (and with it the stall-cycle
// taxonomy), time every library call from the outside and report the
// per-layer metrics. Both project every simulated cell through
// runner::golden_row and gate the rows against DIR/<workload>-<length>-seed<N>.txt
// when that fixture exists (--record writes it instead).
//
// Exit status: 0 ok; 2 usage error; 3 a failed cell, a fingerprint mismatch
// or a metric self-check violation (the JSON line is still printed).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "runner/engine.hpp"
#include "runner/golden.hpp"
#include "runner/json.hpp"
#include "runner/presets.hpp"
#include "runner/render.hpp"
#include "sim/cmp.hpp"
#include "sim/experiment.hpp"
#include "workload/spec_profiles.hpp"

namespace {

using namespace tlrob;
using runner::CampaignSpec;
using runner::JobRecord;
using runner::JobSpec;
using runner::RunLengthSpec;
using Clock = std::chrono::steady_clock;

// Traced iterations sample every kSampleInterval cycles; a nonzero interval
// is what turns the closed stall-cycle taxonomy on.
constexpr Cycle kSampleInterval = 10000;
// The paper's headline result: mean-FT gain of 2-Level R-ROB16 over
// Baseline_32 across the Table 2 mixes (Figure 2).
constexpr double kPaperRrob16GainPct = 30.53;
// Seeds cmp_membound simulates per iteration (see make_workload).
constexpr u64 kCmpSeeds = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// -- host speed -----------------------------------------------------------------

// Other tenants of a shared host slow the simulator by up to 2x for minutes
// at a time, longer than a run, so no statistic over one run's iterations
// removes it. Each iteration therefore times a fixed reference kernel, which
// no change to src/ can speed up, on every host thread it uses, and divides
// its host times by the slowdown the kernel saw. The simulator is more
// sensitive to that interference than the kernel: over three 4-5 minute
// series of smt_ilp iterations, log(iteration time) rose 1.8x as fast as
// log(kernel time). The slowdown is the kernel's to that power.
constexpr double kKernelRefS = 0.02;  // kernel time on the undisturbed host
constexpr double kSlowdownExponent = 1.8;

volatile u64 kernel_sink;

/// Branchy integer work over a small table: xorshift-driven unpredictable
/// branches, loads and stores, the mix that interference slows most.
double kernel_s() {
  std::array<u32, 4096> table{};
  const auto t0 = Clock::now();
  u64 x = 88172645463325252ULL, acc = 0;
  for (u32 k = 0; k < 3000000; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const u32 j = x & 4095;
    if ((x >> 20) & 1)
      table[j] += static_cast<u32>(x);
    else
      acc += table[j ^ 7];
  }
  kernel_sink = acc;
  return since(t0);
}

/// Host slowdown seen by `threads` busy threads (1 = undisturbed): the
/// kernel runs on that many threads at once, and their speeds add up the way
/// a work-stealing pool's workers do.
double host_slowdown(u32 threads) {
  std::vector<double> t(threads);
  if (threads == 1) {
    t[0] = kernel_s();
  } else {
    std::vector<std::thread> pool;
    for (u32 i = 0; i < threads; ++i) pool.emplace_back([&t, i] { t[i] = kernel_s(); });
    for (std::thread& th : pool) th.join();
  }
  double speed = 0;
  for (const double s : t) speed += std::pow(kKernelRefS / s, kSlowdownExponent);
  return static_cast<double>(threads) / speed;
}

// -- workloads ----------------------------------------------------------------

struct Options {
  std::string workload;
  u64 seed = 12345;
  bool trace = false;
  bool tiny = false;
  std::string fixtures;
  bool record = false;
};

struct Workload {
  std::vector<CampaignSpec> campaigns;
  /// Untraced iterations run the campaigns through runner::run_campaign on a
  /// pool (what tlrob-campaign does); otherwise each cell is driven in turn
  /// through the machine API so set-up and simulation time separate.
  bool via_runner = false;
};

CampaignSpec single_cell(const std::string& name, const std::string& column,
                         const MachineConfig& cfg, Mix mix, RunLengthSpec length) {
  CampaignSpec spec;
  spec.name = name;
  spec.columns = {{column, cfg, 0}};
  spec.mixes = {std::move(mix)};
  spec.lengths = {length};
  return spec;
}

Workload make_workload(const Options& o) {
  Workload w;
  if (o.workload == "paper_repro") {
    const RunLengthSpec len = o.tiny ? RunLengthSpec{3000, 1000} : RunLengthSpec{};
    for (const char* preset : {"fig2", "fig3", "fig6"}) {
      w.campaigns.push_back(runner::preset_campaign(preset, len));
      w.campaigns.back().seed = o.seed;
    }
    w.via_runner = true;
  } else if (o.workload == "cmp_membound") {
    Mix mix{"Mix 1-4", {}, "Table 2 mixes 1-4, core-major"};
    for (u32 i = 1; i <= 4; ++i) {
      const Mix& m = table2_mix(i);
      mix.benchmarks.insert(mix.benchmarks.end(), m.benchmarks.begin(), m.benchmarks.end());
    }
    const RunLengthSpec len = o.tiny ? RunLengthSpec{4000, 1000} : RunLengthSpec{100000, 25000};
    // The cycles until the first of the 16 threads reaches its target vary
    // by +-9 % from seed to seed, and a run sees one --seed, so each
    // iteration simulates kCmpSeeds seeds derived from it.
    for (u64 k = 0; k < kCmpSeeds; ++k) {
      w.campaigns.push_back(single_cell("cmp_membound", "CMP4-R-ROB16",
                                        cmp_config(4, RobScheme::kReactive, 16), mix, len));
      w.campaigns.back().seed = o.seed * kCmpSeeds + k;
    }
  } else if (o.workload == "smt_ilp") {
    const Mix mix{"ILP", {"crafty", "eon", "gzip", "vortex"}, "high-ILP four-thread mix"};
    const RunLengthSpec len = o.tiny ? RunLengthSpec{4000, 1000} : RunLengthSpec{250000, 60000};
    w.campaigns.push_back(single_cell("smt_ilp", "Baseline_32", baseline32_config(), mix, len));
    w.campaigns.back().seed = o.seed;
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  // The workload seed is the only input that varies; audit and telemetry are
  // pinned so $TLROB_AUDIT / $TLROB_SAMPLE / $TLROB_PROFILE cannot leak in.
  for (CampaignSpec& spec : w.campaigns) {
    for (runner::ConfigColumn& col : spec.columns) {
      col.config.audit = AuditConfig{};
      col.config.telemetry = obs::TelemetryConfig{};
    }
  }
  return w;
}

// -- one simulated cell, timed from the outside ---------------------------------

struct Cell {
  JobRecord rec;
  u32 cores = 1;
  u32 threads = 0;  // hardware threads over all cores
  double build_s = 0, construct_s = 0, run_s = 0, run_cpu_s = 0, st_ipc_s = 0, cell_s = 0;
  // Whole-run totals, warmup included (the machines' own clocks).
  u64 core_cycles = 0, executed_cycles = 0;
  std::array<u64, obs::kStallClassCount> stall{};  // summed over threads
};

/// The routing rule of run_benchmarks (sim/experiment.cpp).
bool is_cmp(const MachineConfig& cfg) { return cfg.num_cores > 1 || cfg.llc.enabled; }

MachineConfig cell_config(const JobSpec& js, bool trace) {
  MachineConfig cfg = js.config;
  cfg.seed = js.seed;
  if (trace) cfg.telemetry.sample_interval = kSampleInterval;
  return cfg;
}

u32 num_cores(const SmtCore&) { return 1; }
const SmtCore& core_at(const SmtCore& core, u32) { return core; }
u32 num_cores(const CmpMachine& m) { return m.num_cores(); }
const SmtCore& core_at(const CmpMachine& m, u32 c) { return m.core(c); }

template <class Machine>
RunResult construct_and_run(const MachineConfig& cfg, const std::vector<Benchmark>& benches,
                            const JobSpec& js, Cell& cell) {
  const auto t0 = Clock::now();
  Machine machine(cfg, benches);
  cell.construct_s = since(t0);
  const double cpu0 = process_cpu_s();
  const auto t1 = Clock::now();
  RunResult run = machine.run(js.insts, js.max_cycles, js.warmup);
  cell.run_s = since(t1);
  cell.run_cpu_s = process_cpu_s() - cpu0;
  cell.executed_cycles = machine.executed_cycles();
  for (u32 c = 0; c < num_cores(machine); ++c) cell.core_cycles += core_at(machine, c).now();
  return run;
}

JobRecord base_record(const JobSpec& js) {
  JobRecord rec;
  rec.job = js.index;
  rec.campaign = js.campaign;
  rec.config = js.config_name;
  rec.mix = js.mix.name;
  rec.scheme = runner::scheme_name(js.config);
  rec.threshold = js.config.rob.dod_threshold;
  rec.insts = js.insts;
  rec.warmup = js.warmup;
  rec.max_cycles = js.max_cycles;
  rec.seed = js.seed;
  return rec;
}

runner::DodSummary dod_summary(const Histogram& h) {
  return {h.total_samples(), h.mean() * static_cast<double>(h.total_samples()), {}};
}

/// Simulates one cell the way runner::execute_job does, with every library
/// call timed. `with_ft` adds the single-thread references and fair
/// throughput (the paper figures need them; the machine workloads do not).
Cell run_cell(const JobSpec& js, bool trace, bool with_ft) {
  const auto t_cell = Clock::now();
  Cell cell;
  cell.cores = js.config.num_cores;
  cell.threads = js.config.num_cores * js.config.num_threads;
  cell.rec = base_record(js);
  JobRecord& rec = cell.rec;
  try {
    const MachineConfig cfg = cell_config(js, trace);
    const auto t0 = Clock::now();
    const std::vector<Benchmark> benches = mix_benchmarks(js.mix);
    cell.build_s = since(t0);
    const RunResult run = is_cmp(cfg) ? construct_and_run<CmpMachine>(cfg, benches, js, cell)
                                      : construct_and_run<SmtCore>(cfg, benches, js, cell);
    rec.cycles = run.cycles;
    u64 fastest = 0;
    for (const ThreadResult& t : run.threads) {
      rec.benchmarks.push_back(t.benchmark);
      rec.committed.push_back(t.committed);
      rec.mt_ipc.push_back(t.ipc);
      fastest = std::max(fastest, t.committed);
    }
    rec.throughput = run.total_throughput();
    rec.dod_true = dod_summary(run.dod_true);
    rec.dod_proxy = dod_summary(run.dod_proxy);
    rec.counters = run.counters;
    for (const auto& per_thread : run.stall_cycles)
      for (size_t c = 0; c < obs::kStallClassCount; ++c) cell.stall[c] += per_thread[c];
    if (with_ft) {
      const auto t1 = Clock::now();
      for (const std::string& b : rec.benchmarks)
        rec.st_ipc.push_back(single_thread_ipc(b, js.insts));
      cell.st_ipc_s = since(t1);
      rec.ft = fair_throughput(rec.mt_ipc, rec.st_ipc);
    }
    if (fastest < js.insts) {
      rec.status = runner::JobStatus::kFailed;
      rec.error = "cycle cap exceeded before commit target";
    }
  } catch (const std::exception& e) {
    rec.status = runner::JobStatus::kFailed;
    rec.error = e.what();
  }
  cell.cell_s = since(t_cell);
  return cell;
}

// -- metrics --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Counters and ratio bases summed over every cell. Bases are CMP-correct:
/// per-core counters divide by cores x cycles, per-thread ones by
/// hardware threads x cycles.
struct Totals {
  std::map<std::string, u64> counters;
  u64 cycles = 0, core_cycles = 0, thread_cycles = 0, committed = 0;
  u64 dod_true_samples = 0, dod_proxy_samples = 0;
  double dod_true_sum = 0, dod_proxy_sum = 0;

  double get(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  double kinst() const { return static_cast<double>(committed) / 1000.0; }
};

Totals totals(const std::vector<Cell>& cells) {
  Totals t;
  for (const Cell& c : cells) {
    const JobRecord& r = c.rec;
    for (const auto& [name, v] : r.counters) t.counters[name] += v;
    t.cycles += r.cycles;
    t.core_cycles += r.cycles * c.cores;
    t.thread_cycles += r.cycles * c.threads;
    for (const u64 n : r.committed) t.committed += n;
    t.dod_true_samples += r.dod_true.samples;
    t.dod_true_sum += r.dod_true.sum;
    t.dod_proxy_samples += r.dod_proxy.samples;
    t.dod_proxy_sum += r.dod_proxy.sum;
  }
  return t;
}

/// Mean-FT gain (percent) of R-ROB16 over Baseline_32 on the fig2 cells;
/// 0 when the workload does not contain Figure 2.
double paper_gain_pct(const std::vector<Cell>& cells) {
  runner::CampaignResult fig2;
  for (const Cell& c : cells)
    if (c.rec.campaign == "fig2") fig2.records.push_back(c.rec);
  const double base = runner::column_average_ft(fig2, "Baseline_32");
  const double rrob = runner::column_average_ft(fig2, "R-ROB16");
  return base == 0.0 ? 0.0 : 100.0 * (rrob / base - 1.0);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5)];
}

// setup_s, wall_s and cpu_s are divided by the host slowdown measured around
// them (host_slowdown); raw_wall_s is the wall time as measured.
struct Phases {
  double gen_s = 0;       // program generation (first spec_benchmarks() call)
  double setup_s = 0;     // median set-up pass (setup_once)
  double wall_s = 0;      // simulating phase, host wall
  double cpu_s = 0;       // simulating phase, process CPU
  double raw_wall_s = 0;  // simulating phase, host wall as measured
  double slowdown = 1;    // mean host slowdown over the iteration
  double emit_s = 0;      // ResultSink::emit calls (traced)
  u32 workers = 1;
};

std::vector<Metric> end_to_end_metrics(const Phases& p, const Totals& t) {
  return {
      {"wall_s", p.wall_s, "s"},
      {"cpu_s", p.cpu_s, "s"},
      {"setup_s", p.setup_s, "s"},
      {"sim_kips", ratio(t.kinst(), p.wall_s), "kinst/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_ipc", ratio(static_cast<double>(t.committed), static_cast<double>(t.cycles)),
       "inst/cycle"},
  };
}

std::vector<Metric> per_layer_metrics(const Phases& p, const std::vector<Cell>& cells,
                                      const Totals& t, u64 unique_cells) {
  double build_s = p.gen_s, construct_s = 0, run_s = 0, st_s = 0, busy_s = 0;
  u64 executed = 0, core_cycles_all = 0;
  std::array<u64, obs::kStallClassCount> stall{};
  std::vector<double> cell_s;
  for (const Cell& c : cells) {
    build_s += c.build_s;
    construct_s += c.construct_s;
    run_s += c.run_s;
    st_s += c.st_ipc_s;
    busy_s += c.cell_s;
    executed += c.executed_cycles;
    core_cycles_all += c.core_cycles;
    for (size_t k = 0; k < stall.size(); ++k) stall[k] += c.stall[k];
    cell_s.push_back(c.cell_s);
  }
  const double kinst = t.kinst();
  const double core_cyc = static_cast<double>(t.core_cycles);
  const double thread_cyc = static_cast<double>(t.thread_cycles);
  const double exec = static_cast<double>(executed);
  const double gain = paper_gain_pct(cells);
  const double dram_accesses =
      t.get("dram.row_hits") + t.get("dram.row_misses") + t.get("dram.row_conflicts");
  const double dodpred_all = t.get("dodpred.exact_repeats") + t.get("dodpred.value_changes") +
                             t.get("dodpred.cold_installs");
  std::vector<Metric> m = {
      {"runner.cells", static_cast<double>(cells.size()), "count"},
      {"runner.unique_cells", static_cast<double>(unique_cells), "count"},
      {"runner.cell_s_p50", percentile(cell_s, 0.5), "s"},
      {"runner.cell_s_max", percentile(cell_s, 1.0), "s"},
      {"runner.st_ipc_s", st_s, "s"},
      {"runner.emit_s", p.emit_s, "s"},
      {"runner.pool_idle_frac",
       std::max(0.0, 1.0 - ratio(busy_s, p.workers * p.raw_wall_s)), "frac"},
      {"workload.build_s", build_s, "s"},
      {"sim.construct_s", construct_s, "s"},
      {"sim.run_s", run_s, "s"},
      {"sim.executed_cycle_frac", ratio(exec, static_cast<double>(core_cycles_all)), "frac"},
      {"sim.host_ns_per_executed_cycle", ratio(run_s * 1e9, exec), "ns/cycle"},
      {"sim.host_ns_per_inst", ratio(run_s * 1e9, static_cast<double>(t.committed)), "ns/inst"},
      {"sim.events_dropped_per_kinst", ratio(t.get("core.events.dropped"), kinst), "1/kinst"},
      {"pipeline.issue_per_cycle", ratio(t.get("core.issue.insts"), core_cyc), "inst/cycle"},
      {"pipeline.replay_frac", ratio(t.get("core.issue.replays"), t.get("core.issue.insts")),
       "frac"},
      {"pipeline.wrong_path_frac",
       ratio(t.get("core.fetch.wrong_path"),
             t.get("core.fetch.wrong_path") + t.get("core.fetch.insts")),
       "frac"},
      {"pipeline.squash_per_kinst", ratio(t.get("core.squash.insts"), kinst), "1/kinst"},
      {"pipeline.stall_rob_frac", ratio(t.get("core.dispatch.stall_rob"), thread_cyc), "frac"},
      {"pipeline.stall_iq_frac", ratio(t.get("core.dispatch.stall_iq"), thread_cyc), "frac"},
      {"pipeline.stall_lsq_frac", ratio(t.get("core.dispatch.stall_lsq"), thread_cyc), "frac"},
      {"pipeline.stall_dcra_frac", ratio(t.get("core.dispatch.stall_dcra"), thread_cyc), "frac"},
      {"branch.cond_mispredict_rate",
       ratio(t.get("bpred.branch.cond_mispredict"), t.get("bpred.branch.cond")), "frac"},
      {"branch.btb_hits_per_kinst", ratio(t.get("bpred.btb.hits"), kinst), "1/kinst"},
      {"rob.l2_miss_candidates", t.get("rob.l2_miss_candidates"), "count"},
      {"rob.grant_frac", ratio(t.get("rob.allocations"), t.get("rob.l2_miss_candidates")),
       "frac"},
      {"rob.rejected_high_dod", t.get("rob.rejected_high_dod"), "count"},
      {"rob2.busy_frac", ratio(t.get("rob2.busy_cycles"), core_cyc), "frac"},
      {"rob.dod_true_mean", ratio(t.dod_true_sum, static_cast<double>(t.dod_true_samples)),
       "inst"},
      {"rob.dod_proxy_mean", ratio(t.dod_proxy_sum, static_cast<double>(t.dod_proxy_samples)),
       "inst"},
      {"dodpred.exact_repeat_frac", ratio(t.get("dodpred.exact_repeats"), dodpred_all), "frac"},
      {"memory.l1d_miss_rate", ratio(t.get("l1d.misses"), t.get("l1d.accesses")), "frac"},
      {"memory.l2_mpki", ratio(t.get("l2.misses"), kinst), "1/kinst"},
      {"memory.l1d_mshr_merge_frac",
       ratio(t.get("l1d.mshr_merges"), t.get("l1d.mshr_merges") + t.get("l1d.misses")), "frac"},
      {"memory.channel_mshr_full_stalls", t.get("channel.mshr_full_stalls"), "count"},
      {"memory.llc_miss_rate", ratio(t.get("llc.misses"), t.get("llc.accesses")), "frac"},
      {"memory.llc_mshr_full_stalls", t.get("llc.mshr_full_stalls"), "count"},
      {"memory.llc_cross_core_merges", t.get("llc.cross_core_merges"), "count"},
      {"memory.dram_row_hit_rate", ratio(t.get("dram.row_hits"), dram_accesses), "frac"},
      {"memory.dram_reads_per_kinst", ratio(t.get("dram.reads"), kinst), "1/kinst"},
  };
  for (size_t k = 0; k < obs::kStallClassCount; ++k)
    m.push_back({std::string("stall.") + obs::stall_class_name(static_cast<obs::StallClass>(k)) +
                     "_frac",
                 ratio(static_cast<double>(stall[k]), thread_cyc), "frac"});
  m.push_back({"paper.rrob16_gain_pct", gain, "%"});
  m.push_back({"paper.err_pp", gain == 0.0 ? 0.0 : std::abs(kPaperRrob16GainPct - gain), "pp"});
  m.push_back({"bench.host_slowdown", p.slowdown, "x"});
  return m;
}

// -- fingerprint gate ---------------------------------------------------------

std::string fingerprint_text(const Options& o, const std::vector<Cell>& cells) {
  std::ostringstream os;
  os << "# tlrob-perfbench fingerprints: workload=" << o.workload
     << " length=" << (o.tiny ? "tiny" : "full") << " seed=" << o.seed << "\n";
  for (const Cell& c : cells) {
    const runner::GoldenRow row = runner::golden_row(c.rec);
    os << row.config << " | " << row.mix << " | " << row.status << " | " << row.cycles << " |";
    for (const u64 n : row.committed) os << ' ' << n;
    os << " |";
    for (const double v : row.mt_ipc) os << ' ' << runner::json_double(v);
    os << " | " << row.l2_misses << " | " << row.second_level_grants << "\n";
  }
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

u64 fnv1a(const std::string& s) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : s) h = (h ^ ch) * 0x100000001b3ULL;
  return h;
}

struct Gate {
  std::string status;     // pass | mismatch | skipped | recorded
  std::vector<bool> bad;  // per cell: differs from the fixture
};

Gate check_fixture(const Options& o, const std::string& text, size_t cells,
                   std::vector<std::string>& errors) {
  Gate g{"skipped", std::vector<bool>(cells, false)};
  if (o.fixtures.empty()) return g;
  const std::string path = o.fixtures + "/" + o.workload + "-" + (o.tiny ? "tiny" : "full") +
                           "-seed" + std::to_string(o.seed) + ".txt";
  if (o.record) {
    std::ofstream out(path);
    out << text;
    if (!out) throw std::runtime_error("cannot write fixture " + path);
    g.status = "recorded";
    return g;
  }
  std::ifstream in(path);
  if (!in) return g;
  std::stringstream expected;
  expected << in.rdbuf();
  const std::vector<std::string> want = split_lines(expected.str());
  const std::vector<std::string> got = split_lines(text);
  g.status = "pass";
  // Line 0 is the header; line i + 1 is cell i.
  const bool same_shape = want.size() == got.size() && !want.empty() && want[0] == got[0];
  for (size_t i = 0; i < cells; ++i) {
    g.bad[i] = !same_shape || want[i + 1] != got[i + 1];
    if (g.bad[i] && g.status == "pass") {
      g.status = "mismatch";
      errors.push_back("fingerprint mismatch vs " + path + " at cell " + std::to_string(i) +
                       ": expected '" + (same_shape ? want[i + 1] : want.front()) + "', got '" +
                       (same_shape ? got[i + 1] : got.front()) + "'");
    }
  }
  return g;
}

// -- one iteration ----------------------------------------------------------------

// Set-up is timed over and over, at least kSetupMinPasses times and for at
// least kSetupMinSeconds, and reported as the median pass: a single pass of
// the machine workloads takes well under a millisecond.
constexpr size_t kSetupMinPasses = 5;
constexpr double kSetupMinSeconds = 0.05;

/// One set-up pass: campaign expansion, then every cell's workload
/// resolution and machine construction (and release) — what stands between
/// the command and the first simulated cycle, once the programs exist.
double setup_once(const Workload& w) {
  const auto t0 = Clock::now();
  for (const CampaignSpec& spec : w.campaigns) {
    for (const JobSpec& js : runner::expand(spec)) {
      const MachineConfig cfg = cell_config(js, false);
      const std::vector<Benchmark> benches = mix_benchmarks(js.mix);
      if (is_cmp(cfg))
        (void)CmpMachine(cfg, benches);
      else
        (void)SmtCore(cfg, benches);
    }
  }
  return since(t0);
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out += ",";
    out += runner::json_escape(ms[i].name) + ":{\"value\":" + runner::json_double(ms[i].value) +
           ",\"unit\":" + runner::json_escape(ms[i].unit) + "}";
  }
  return out + "}";
}

int run(const Options& o) {
  const Workload w = make_workload(o);
  Phases p;
  if (w.via_runner) p.workers = std::min(4u, WorkStealingPool::resolve_threads(0));

  // Program generation happens once per process (spec_benchmarks() caches).
  const auto t_gen = Clock::now();
  (void)spec_benchmarks();
  p.gen_s = since(t_gen);
  // Host slowdowns measured so far: before and after set-up, then after each
  // part of the simulating phase. A part's times divide by the mean of the
  // slowdowns at its two ends.
  std::vector<double> slow = {host_slowdown(p.workers)};
  auto normalize = [&slow](double s) { return s / (0.5 * (slow.back() + slow[slow.size() - 2])); };
  std::vector<double> setups;
  for (double total = 0; setups.size() < kSetupMinPasses || total < kSetupMinSeconds;)
    total += setups.emplace_back(setup_once(w));
  slow.push_back(host_slowdown(p.workers));
  p.setup_s = normalize(percentile(setups, 0.5));

  std::vector<JobSpec> jobs;
  std::set<std::string> unique;
  for (const CampaignSpec& spec : w.campaigns) {
    for (JobSpec& js : runner::expand(spec)) {
      JobSpec identity = js;
      identity.campaign.clear();  // the same cell recurs across presets
      unique.insert(runner::job_key(identity));
      jobs.push_back(std::move(js));
    }
  }

  std::vector<Cell> cells;
  if (w.via_runner && !o.trace) {
    std::ostringstream sink_out;
    runner::JsonlSink sink(sink_out);
    runner::EngineOptions eng;
    eng.jobs = p.workers;
    eng.sinks = {&sink};
    size_t next = 0;
    for (const CampaignSpec& spec : w.campaigns) {
      const double cpu0 = process_cpu_s();
      const auto t0 = Clock::now();
      runner::CampaignResult res = runner::run_campaign(spec, eng);
      const double wall = since(t0), cpu = process_cpu_s() - cpu0;
      slow.push_back(host_slowdown(p.workers));
      p.raw_wall_s += wall;
      p.wall_s += normalize(wall);
      p.cpu_s += normalize(cpu);
      for (JobRecord& rec : res.records) {
        Cell c;
        c.cores = jobs[next].config.num_cores;
        c.threads = c.cores * jobs[next].config.num_threads;
        c.rec = std::move(rec);
        cells.push_back(std::move(c));
        ++next;
      }
    }
  } else if (w.via_runner) {
    cells.resize(jobs.size());
    const auto t0 = Clock::now();
    {
      WorkStealingPool pool(p.workers);
      for (size_t i = 0; i < jobs.size(); ++i)
        pool.submit([&cells, &jobs, i] { cells[i] = run_cell(jobs[i], true, true); });
      pool.wait_idle();
    }
    std::ostringstream sink_out;
    runner::JsonlSink sink(sink_out);
    for (const Cell& c : cells) {
      const auto te = Clock::now();
      sink.emit(c.rec);
      p.emit_s += since(te);
    }
    p.raw_wall_s = since(t0);
    slow.push_back(host_slowdown(p.workers));
    p.wall_s = normalize(p.raw_wall_s);
  } else {
    // Machine workloads: the cells' run() calls are the simulating phase.
    for (const JobSpec& js : jobs) {
      Cell& c = cells.emplace_back(run_cell(js, o.trace, false));
      slow.push_back(host_slowdown(p.workers));
      p.raw_wall_s += c.run_s;
      p.wall_s += normalize(c.run_s);
      p.cpu_s += normalize(c.run_cpu_s);
    }
  }
  p.slowdown = 0;
  for (const double s : slow) p.slowdown += s / static_cast<double>(slow.size());

  std::vector<std::string> errors;
  const Totals t = totals(cells);
  const std::vector<Metric> metrics =
      o.trace ? per_layer_metrics(p, cells, t, unique.size()) : end_to_end_metrics(p, t);

  // Self-checks: fractions and rates lie in [0, 1]; with the taxonomy armed,
  // every thread-cycle is attributed to exactly one stall class.
  for (const Metric& m : metrics) {
    const bool bounded = m.name.ends_with("_frac") || m.name.ends_with("_rate");
    if (bounded && !(m.value >= 0.0 && m.value <= 1.0))
      errors.push_back(m.name + " = " + runner::json_double(m.value) + " outside [0, 1]");
  }
  if (o.trace) {
    u64 attributed = 0;
    for (const Cell& c : cells)
      for (const u64 v : c.stall) attributed += v;
    if (attributed != t.thread_cycles)
      errors.push_back("stall taxonomy attributes " + std::to_string(attributed) + " of " +
                       std::to_string(t.thread_cycles) + " thread-cycles");
  }

  const std::string text = fingerprint_text(o, cells);
  const Gate gate = check_fixture(o, text, cells.size(), errors);
  u64 failed = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const bool cell_failed = !cells[i].rec.ok();
    if (cell_failed)
      errors.push_back("cell " + std::to_string(i) + " (" + cells[i].rec.config + " / " +
                       cells[i].rec.mix + ") failed: " + cells[i].rec.error);
    if (cell_failed || gate.bad[i]) ++failed;
  }

  const double gain = paper_gain_pct(cells);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(fnv1a(text)));
  std::string errs = "[";
  for (size_t i = 0; i < errors.size(); ++i)
    errs += (i == 0 ? "" : ",") + runner::json_escape(errors[i]);
  errs += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"fingerprint\":\"%s\",\"gate\":\"%s\","
      "\"attempted\":%zu,\"failed\":%llu,\"wall_s\":%s,\"raw_wall_s\":%s,\"slowdown\":%s,"
      "\"paper_gain_pct\":%s,\"errors\":%s,"
      "\"metrics\":%s}\n",
      runner::json_escape(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, digest, gate.status.c_str(), cells.size(),
      static_cast<unsigned long long>(failed), runner::json_double(p.wall_s).c_str(),
      runner::json_double(p.raw_wall_s).c_str(), runner::json_double(p.slowdown).c_str(),
      runner::json_double(gain).c_str(), errs.c_str(), metrics_json(metrics).c_str());
  return errors.empty() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--trace") o.trace = value() != "0";
      else if (a == "--length") {
        const std::string len = value();
        if (len != "full" && len != "tiny")
          throw std::invalid_argument("--length must be full or tiny");
        o.tiny = len == "tiny";
      } else if (a == "--fixtures") o.fixtures = value();
      else if (a == "--record") o.record = true;
      else throw std::invalid_argument("unknown argument " + a);
    }
    if (o.workload.empty()) throw std::invalid_argument("--workload is required");
    make_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tlrob-perfbench: %s\n", e.what());
    return 2;
  }
  return run(o);
}

// Campaign-runner tests: record serialisation, the thread pool, the
// single-thread reference cells, the engine's contracts — serial/parallel
// bit-identity, failure isolation, manifest resume and the cell memo — and
// the CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/cli.hpp"
#include "runner/engine.hpp"
#include "runner/render.hpp"
#include "common/thread_pool.hpp"
#include "sim/cmp.hpp"
#include "sim/config_override.hpp"
#include "sim/experiment.hpp"
#include "trace/resolve.hpp"

namespace tlrob::runner {
namespace {

// Small enough to keep the suite fast, long enough to commit real work.
constexpr u64 kInsts = 1500;
constexpr u64 kWarmup = 300;

CampaignSpec small_spec(const std::string& name = "test_campaign") {
  CampaignSpec spec;
  spec.name = name;
  spec.columns = {{"Baseline_32", baseline32_config(), 0},
                  {"R-ROB16", two_level_config(RobScheme::kReactive, 16), 0}};
  spec.mixes = {table2_mix(1), table2_mix(2)};
  spec.lengths = {{kInsts, kWarmup}};
  return spec;
}

std::string temp_path(const std::string& stem) {
  return testing::TempDir() + stem + ".jsonl";
}

std::string jsonl_of(const CampaignResult& result) {
  std::string out;
  for (const JobRecord& rec : result.records) out += to_json_line(rec) + "\n";
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Reference cells a campaign journals beside its own: one per distinct
/// (benchmark, insts) of its cells.
size_t reference_count(const CampaignSpec& spec) {
  std::set<std::pair<std::string, u64>> refs;
  for (const JobSpec& js : expand(spec))
    for (const std::string& b : js.mix.benchmarks) refs.emplace(b, js.insts);
  return refs.size();
}

/// Thread 0's IPC of `benchmark` run alone on the single-thread machine,
/// simulated here rather than read through the memo.
double direct_st_ipc(const std::string& benchmark, u64 insts) {
  return CmpMachine(single_thread_config(), {trace::resolve_benchmark(benchmark)})
      .run(insts, 0, kDefaultWarmup)
      .threads.at(0)
      .ipc;
}

/// A record with the fields a memo hit restamps blanked out.
std::string unnamed_json(JobRecord rec) {
  rec.job = 0;
  rec.campaign.clear();
  rec.config.clear();
  rec.mix.clear();
  return to_json_line(rec);
}

TEST(RunnerJson, RecordRoundTrip) {
  JobRecord r;
  r.job = 7;
  r.campaign = "camp \"quoted\"\n";
  r.config = "R-ROB16";
  r.mix = "Mix 3";
  r.scheme = "rrob";
  r.threshold = 16;
  r.insts = 120000;
  r.warmup = 60000;
  r.max_cycles = 123456789012345ULL;
  r.seed = 0xdeadbeefcafef00dULL;  // must survive without a double round trip
  r.status = JobStatus::kFailed;
  r.error = "cycle cap exceeded";
  r.cycles = 991;
  r.ft = 0.123456789012345678;
  r.throughput = 3.25;
  r.benchmarks = {"art", "mcf"};
  r.committed = {17, 23};
  r.mt_ipc = {0.25, 0.5};
  r.st_ipc = {1.0, 2.0};
  r.dod_true = {5, 12.5, {1, 2, 3}};
  r.dod_proxy = {2, 7.0, {4, 0, 1}};
  r.counters = {{"a.b", 1}, {"c", 2}};

  const JobRecord p = record_from_json_line(to_json_line(r));
  EXPECT_EQ(p.job, r.job);
  EXPECT_EQ(p.campaign, r.campaign);
  EXPECT_EQ(p.config, r.config);
  EXPECT_EQ(p.mix, r.mix);
  EXPECT_EQ(p.scheme, r.scheme);
  EXPECT_EQ(p.threshold, r.threshold);
  EXPECT_EQ(p.max_cycles, r.max_cycles);
  EXPECT_EQ(p.seed, r.seed);
  EXPECT_EQ(p.status, r.status);
  EXPECT_EQ(p.error, r.error);
  EXPECT_EQ(p.cycles, r.cycles);
  EXPECT_DOUBLE_EQ(p.ft, r.ft);
  EXPECT_EQ(p.benchmarks, r.benchmarks);
  EXPECT_EQ(p.committed, r.committed);
  EXPECT_EQ(p.mt_ipc, r.mt_ipc);
  EXPECT_EQ(p.st_ipc, r.st_ipc);
  EXPECT_EQ(p.dod_true.samples, r.dod_true.samples);
  EXPECT_DOUBLE_EQ(p.dod_true.sum, r.dod_true.sum);
  EXPECT_EQ(p.dod_true.buckets, r.dod_true.buckets);
  EXPECT_EQ(p.counters, r.counters);

  // Serialisation is deterministic: a second pass produces identical bytes.
  EXPECT_EQ(to_json_line(r), to_json_line(p));

  EXPECT_THROW(record_from_json_line("{broken"), std::invalid_argument);
  EXPECT_THROW(record_from_json_line("[1,2]"), std::invalid_argument);
}

TEST(RunnerPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 500; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 500);
    // Reuse after wait_idle.
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 501);
  }
}

TEST(RunnerPool, NestedSubmissionsAreStealable) {
  std::atomic<int> count{0};
  ThreadPool pool(3);
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &count] {
      for (int j = 0; j < 50; ++j)
        pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 8 * 50);
}

TEST(RunnerPool, OneWorkerRunsTasksInSubmissionOrder) {
  std::vector<int> order;
  std::set<std::thread::id> ids;
  ThreadPool pool(1);
  for (int i = 0; i < 100; ++i)
    pool.submit([&order, &ids, i] {
      order.push_back(i);
      ids.insert(std::this_thread::get_id());
    });
  pool.wait_idle();
  std::vector<int> expected(100);
  for (int i = 0; i < 100; ++i) expected[i] = i;
  EXPECT_EQ(order, expected);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_NE(*ids.begin(), std::this_thread::get_id());
}

// A task's exception reaches wait_idle() instead of ending its worker, and
// the pool keeps running tasks.
TEST(RunnerPool, TaskExceptionReachesWaitIdle) {
  std::atomic<int> count{0};
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("task failed"); });
  for (int i = 0; i < 10; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_THROW(pool.wait_idle(), std::logic_error);
  EXPECT_EQ(count.load(), 10);
  pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(count.load(), 11);
}

TEST(RunnerPool, DestructorRunsEveryQueuedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    // The first task holds the one worker, so the rest are still queued
    // when the pool goes out of scope; the last one submits one more.
    pool.submit([&count] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      count.fetch_add(1, std::memory_order_relaxed);
    });
    for (int i = 0; i < 99; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.submit([&pool, &count] {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  EXPECT_EQ(count.load(), 101);
}

TEST(RunnerPool, ResolveThreadsDefaultsToHardware) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(7), 7u);
}

// single_thread_ipc reads reference cells through the cell memo: hammer the
// same and different keys from many threads; every result must equal the
// serial value and (under TSan) produce no data race.
TEST(RunnerReferenceCache, SingleThreadIpcIsThreadSafe) {
  const double art = single_thread_ipc("art", 800);
  const double mcf = single_thread_ipc("mcf", 800);
  std::vector<std::thread> threads;
  std::vector<double> results(16, 0.0);
  threads.reserve(16);
  for (int t = 0; t < 16; ++t)
    threads.emplace_back([t, &results] {
      results[t] = single_thread_ipc(t % 2 == 0 ? "art" : "mcf", 800);
      // Distinct key computed concurrently with the lookups above.
      (void)single_thread_ipc("crafty", 700 + static_cast<u64>(t % 4));
    });
  for (auto& t : threads) t.join();
  for (int t = 0; t < 16; ++t) EXPECT_DOUBLE_EQ(results[t], t % 2 == 0 ? art : mcf);
}

TEST(RunnerCampaign, ExpansionOrderAndSeeds) {
  CampaignSpec spec = small_spec();
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 4u);
  // Mix-major, column-minor: the streaming order of the rendered table.
  EXPECT_EQ(jobs[0].config_name, "Baseline_32");
  EXPECT_EQ(jobs[0].mix.name, "Mix 1");
  EXPECT_EQ(jobs[1].config_name, "R-ROB16");
  EXPECT_EQ(jobs[1].mix.name, "Mix 1");
  EXPECT_EQ(jobs[2].mix.name, "Mix 2");
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].seed, spec.seed);  // every cell runs the campaign's seed
  }

  CampaignSpec empty;
  EXPECT_THROW(expand(empty), std::invalid_argument);
}

TEST(RunnerEngine, ExecuteJobMatchesDirectSimulation) {
  const CampaignSpec spec = small_spec();
  const JobSpec js = expand(spec)[0];
  const JobRecord rec = execute_job(js);
  ASSERT_TRUE(rec.ok()) << rec.error;

  MachineConfig cfg = js.config;
  cfg.seed = js.seed;
  const RunResult direct = CmpMachine(cfg, mix_benchmarks(js.mix)).run(js.insts, 0, js.warmup);
  ASSERT_EQ(direct.threads.size(), rec.mt_ipc.size());
  std::vector<double> mt, st;
  for (const auto& t : direct.threads) {
    mt.push_back(t.ipc);
    st.push_back(direct_st_ipc(t.benchmark, js.insts));
  }
  EXPECT_EQ(rec.cycles, direct.cycles);
  EXPECT_EQ(rec.st_ipc, st);
  EXPECT_EQ(rec.ft, fair_throughput(mt, st));
  EXPECT_EQ(rec.throughput, direct.total_throughput());
  EXPECT_EQ(rec.counters, direct.counters);
}

// The reference definition: every record of a campaign weighs thread i by
// its benchmark run alone on single_thread_config() at the record's insts,
// with the default warmup, bit for bit.
TEST(RunnerEngine, RecordsWeighBySingleThreadRuns) {
  EngineOptions eng;
  eng.jobs = 2;
  const CampaignResult res = run_campaign(small_spec("reference_definition"), eng);
  std::map<std::string, double> direct;
  for (const JobRecord& rec : res.records) {
    ASSERT_TRUE(rec.ok()) << rec.error;
    ASSERT_EQ(rec.st_ipc.size(), rec.benchmarks.size());
    for (size_t i = 0; i < rec.benchmarks.size(); ++i) {
      const std::string& b = rec.benchmarks[i];
      if (direct.count(b) == 0) direct[b] = direct_st_ipc(b, rec.insts);
      EXPECT_EQ(rec.st_ipc[i], direct[b]) << rec.mix << " thread " << i;
    }
    EXPECT_EQ(rec.ft, fair_throughput(rec.mt_ipc, rec.st_ipc));
  }
}

// The tentpole determinism guarantee: a parallel campaign produces
// byte-identical sink output to a serial one, records and rendered table
// alike.
TEST(RunnerEngine, SerialAndParallelSinksAreByteIdentical) {
  auto run_with_jobs = [](u32 jobs, std::string* json_out, std::string* table_out) {
    clear_cell_memo();  // two independent simulations, not one and its copy
    std::ostringstream json;
    JsonlSink jsink(json);
    std::FILE* const table = std::tmpfile();
    ASSERT_NE(table, nullptr);
    FtTableSink tsink(table);
    EngineOptions eng;
    eng.jobs = jobs;
    eng.sinks = {&jsink, &tsink};
    const CampaignResult res = run_campaign(small_spec(), eng);
    EXPECT_EQ(res.ok, 4u);
    EXPECT_EQ(res.failed, 0u);
    *json_out = json.str();
    std::rewind(table);
    for (int c; (c = std::fgetc(table)) != EOF;) table_out->push_back(static_cast<char>(c));
    std::fclose(table);
  };

  std::string json1, table1, json4, table4;
  run_with_jobs(1, &json1, &table1);
  run_with_jobs(4, &json4, &table4);
  EXPECT_FALSE(json1.empty());
  EXPECT_EQ(json1, json4);
  EXPECT_NE(table1.find("Average"), std::string::npos) << table1;
  EXPECT_EQ(table1, table4);
}

// Failure isolation: a cell whose cycle cap is too small for its commit
// target reports `failed`; the rest of the campaign completes.
TEST(RunnerEngine, FailureInjectionMarksOnlyTheCappedColumn) {
  CampaignSpec spec = small_spec();
  spec.columns[1].max_cycles = 50;  // far below what kInsts commits need

  std::ostringstream json;
  JsonlSink jsink(json);
  EngineOptions eng;
  eng.jobs = 2;
  eng.sinks = {&jsink};
  const CampaignResult res = run_campaign(spec, eng);

  EXPECT_EQ(res.ok, 2u);
  EXPECT_EQ(res.failed, 2u);
  ASSERT_EQ(res.records.size(), 4u);
  for (const auto& rec : res.records) {
    if (rec.config == "R-ROB16") {
      EXPECT_FALSE(rec.ok());
      EXPECT_NE(rec.error.find("cycle cap"), std::string::npos) << rec.error;
    } else {
      EXPECT_TRUE(rec.ok()) << rec.error;
    }
  }
  // Failed cells drop out of the renderer aggregates but stay in the sinks.
  EXPECT_EQ(column_records(res, "R-ROB16").size(), 0u);
  EXPECT_EQ(column_records(res, "Baseline_32").size(), 2u);
  EXPECT_NE(json.str().find("\"status\":\"failed\""), std::string::npos);
}

TEST(RunnerEngine, ResumeFromManifestSkipsCompletedCells) {
  const std::string manifest = temp_path("tlrob_resume_manifest");
  std::remove(manifest.c_str());

  // Phase 1: a partial campaign — one configuration column only.
  CampaignSpec partial = small_spec("resume_campaign");
  partial.columns.resize(1);
  {
    EngineOptions eng;
    eng.jobs = 1;
    eng.manifest_path = manifest;
    const CampaignResult res = run_campaign(partial, eng);
    EXPECT_EQ(res.ok, 2u);
  }

  // Phase 2: the full campaign, resumed — the two completed cells replay
  // from the manifest, only the new column executes.
  const CampaignSpec full = small_spec("resume_campaign");
  std::string resumed_json;
  {
    std::ostringstream json;
    JsonlSink jsink(json);
    EngineOptions eng;
    eng.jobs = 1;
    eng.manifest_path = manifest;
    eng.resume = true;
    eng.sinks = {&jsink};
    const CampaignResult res = run_campaign(full, eng);
    EXPECT_EQ(res.resumed, 2u);
    EXPECT_EQ(res.ok, 2u);
    EXPECT_EQ(res.failed, 0u);
    resumed_json = json.str();
  }

  // The resumed output is byte-identical to a from-scratch run.
  std::string fresh_json;
  {
    clear_cell_memo();  // from scratch: simulate, don't copy the memo
    std::ostringstream json;
    JsonlSink jsink(json);
    EngineOptions eng;
    eng.jobs = 1;
    eng.sinks = {&jsink};
    (void)run_campaign(full, eng);
    fresh_json = json.str();
  }
  EXPECT_EQ(resumed_json, fresh_json);

  // Resuming the now-complete campaign executes nothing.
  {
    EngineOptions eng;
    eng.jobs = 1;
    eng.manifest_path = manifest;
    eng.resume = true;
    const CampaignResult res = run_campaign(full, eng);
    EXPECT_EQ(res.resumed, 4u);
    EXPECT_EQ(res.ok, 0u);
  }
  std::remove(manifest.c_str());
}

TEST(RunnerEngine, ResumeIsManifestLineOrderIndependent) {
  // The manifest is journalled in completion order, which varies with
  // worker count and crash timing. load_manifest keys an ordered map (lint
  // rule D1), so the emitted campaign must be byte-identical no matter how
  // the journal lines are permuted on disk.
  const std::string manifest = temp_path("tlrob_shuffle_manifest");
  const std::string reversed = temp_path("tlrob_shuffle_manifest_rev");
  std::remove(manifest.c_str());

  const CampaignSpec spec = small_spec("shuffle_campaign");
  {
    EngineOptions eng;
    eng.jobs = 1;
    eng.manifest_path = manifest;
    const CampaignResult res = run_campaign(spec, eng);
    EXPECT_EQ(res.ok, 4u);
  }

  // Rewrite the journal with its lines reversed (an adversarial completion
  // order), plus noise a crash could leave behind.
  std::vector<std::string> lines;
  {
    std::ifstream in(manifest);
    std::string line;
    while (std::getline(in, line))
      if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u + reference_count(spec));
  {
    std::ofstream out(reversed);
    out << "\n";  // blank line: skipped
    for (auto it = lines.rbegin(); it != lines.rend(); ++it) out << *it << "\n";
    out << "{truncated by a crash";  // malformed tail: skipped
  }

  auto resume_json = [&](const std::string& path) {
    std::ostringstream json;
    JsonlSink jsink(json);
    EngineOptions eng;
    eng.jobs = 1;
    eng.manifest_path = path;
    eng.resume = true;
    eng.sinks = {&jsink};
    const CampaignResult res = run_campaign(spec, eng);
    EXPECT_EQ(res.resumed, 4u);
    EXPECT_EQ(res.ok, 0u);
    return json.str();
  };
  const std::string from_journal_order = resume_json(manifest);
  const std::string from_reversed = resume_json(reversed);
  EXPECT_FALSE(from_journal_order.empty());
  EXPECT_EQ(from_journal_order, from_reversed);

  std::remove(manifest.c_str());
  std::remove(reversed.c_str());
}

// A journal matches on cell content, not on names: a manifest written by a
// 1-core sweep must not replay into a 2-core sweep whose cells carry the
// same campaign, column and mix names.
TEST(RunnerEngine, ResumeMatchesOnCellContentNotNames) {
  const std::string manifest = temp_path("tlrob_content_manifest");
  std::remove(manifest.c_str());
  Options one_core;
  one_core.set("schemes", "baseline32");
  one_core.set("mixes", "1");
  one_core.set("insts", std::to_string(kInsts));
  one_core.set("warmup", std::to_string(kWarmup));
  Options two_core = one_core;
  two_core.set("cores", "2");
  const CampaignSpec small = custom_campaign(one_core);
  const CampaignSpec cmp = custom_campaign(two_core);
  ASSERT_EQ(job_key(expand(small)[0]), job_key(expand(cmp)[0]));  // same names

  EngineOptions journal;
  journal.jobs = 1;
  journal.manifest_path = manifest;
  const CampaignResult first = run_campaign(small, journal);
  ASSERT_EQ(first.ok, 1u);

  EngineOptions resume = journal;
  resume.resume = true;
  const CampaignResult resumed = run_campaign(cmp, resume);
  EXPECT_EQ(resumed.resumed, 0u);
  EXPECT_EQ(resumed.ok, 1u);
  clear_cell_memo();
  EXPECT_EQ(jsonl_of(resumed), jsonl_of(run_campaign(cmp, EngineOptions{})));
  EXPECT_NE(jsonl_of(resumed), jsonl_of(first));

  // Both cells are journalled now, each under its own digest.
  EXPECT_EQ(run_campaign(small, resume).resumed, 1u);
  EXPECT_EQ(run_campaign(cmp, resume).resumed, 1u);

  // A journal line without a digest never matches: it re-runs.
  {
    std::ofstream out(manifest, std::ios::trunc);
    out << to_json_line(first.records[0]) << "\n";
  }
  const CampaignResult legacy = run_campaign(small, resume);
  EXPECT_EQ(legacy.resumed, 0u);
  EXPECT_EQ(legacy.ok, 1u);
  EXPECT_EQ(jsonl_of(legacy), jsonl_of(first));
  std::remove(manifest.c_str());
}

// A journalled reference seeds the memo: the resumed campaign's cells weigh
// by the journal's value, and the reference is not simulated again.
TEST(RunnerEngine, ResumeWeighsByJournalledReferences) {
  const std::string manifest = temp_path("tlrob_reference_manifest");
  const CampaignSpec spec = small_spec("reference_resume");
  const std::string bench = spec.mixes[0].benchmarks[0];
  const JobSpec ref = reference_job(bench, kInsts);
  const std::string digest = cell_digest(cell_key(ref));
  constexpr double kSentinel = 0.0625;
  {
    JobRecord line;
    line.config = ref.config_name;
    line.mix = bench;
    line.insts = ref.insts;
    line.warmup = ref.warmup;
    line.seed = ref.seed;
    line.benchmarks = {bench};
    line.committed = {ref.insts};
    line.mt_ipc = {kSentinel};
    std::string json = to_json_line(line);
    json.pop_back();  // the closing brace: the journal adds the digest
    std::ofstream out(manifest, std::ios::trunc);
    out << json << ",\"cell\":\"" << digest << "\"}\n";
  }
  clear_cell_memo();
  EngineOptions eng;
  eng.jobs = 2;
  eng.manifest_path = manifest;
  eng.resume = true;
  const CampaignResult res = run_campaign(spec, eng);
  EXPECT_EQ(res.ok, 4u);
  EXPECT_EQ(res.resumed, 0u);
  u32 weighed = 0;
  for (const JobRecord& rec : res.records)
    for (size_t i = 0; i < rec.benchmarks.size(); ++i)
      if (rec.benchmarks[i] == bench) {
        EXPECT_EQ(rec.st_ipc.at(i), kSentinel) << rec.mix << " thread " << i;
        ++weighed;
      }
  EXPECT_GT(weighed, 0u);
  EXPECT_EQ(single_thread_ipc(bench, kInsts), kSentinel);
  // The other references were journalled; the resumed one was not again.
  const std::string journal = read_file(manifest);
  EXPECT_EQ(std::count(journal.begin(), journal.end(), '\n'),
            static_cast<long>(1 + 4 + reference_count(spec) - 1));
  EXPECT_EQ(journal.find(digest), journal.rfind(digest));
  clear_cell_memo();  // no later test may weigh by the sentinel
  std::remove(manifest.c_str());
}

// -- cell memo --------------------------------------------------------------

TEST(RunnerMemo, RepeatUnderOtherNamesIsRestampedCopy) {
  clear_cell_memo();
  const CampaignResult first = run_campaign(small_spec("memo_a"), EngineOptions{});
  EXPECT_EQ(first.deduplicated, 0u);

  CampaignSpec renamed = small_spec("memo_b");
  renamed.columns[0].name = "B32";
  renamed.columns[1].name = "R16";
  renamed.mixes[0].name = "first";
  renamed.mixes[1].name = "second";
  EngineOptions wide;
  wide.jobs = 4;
  const CampaignResult second = run_campaign(renamed, wide);
  EXPECT_EQ(second.ok, 4u);
  EXPECT_EQ(second.deduplicated, 4u);  // nothing simulated

  ASSERT_EQ(first.records.size(), second.records.size());
  for (size_t i = 0; i < first.records.size(); ++i) {
    const JobRecord& a = first.records[i];
    const JobRecord& b = second.records[i];
    EXPECT_EQ(unnamed_json(a), unnamed_json(b)) << "record " << i;
    EXPECT_EQ(b.job, i);
    EXPECT_EQ(b.campaign, "memo_b");
    EXPECT_EQ(b.config, renamed.columns[i % 2].name);
    EXPECT_EQ(b.mix, renamed.mixes[i / 2].name);
  }
}

// Every knob apply_overrides accepts reaches the key: a config differing
// only in that knob is a different cell. So do the workload and the run
// lengths; names do not.
TEST(RunnerMemo, KeyCoversEveryOverrideKnob) {
  JobSpec base;
  base.config = baseline32_config();
  base.seed = base.config.seed;
  base.mix = table2_mix(1);
  base.insts = kInsts;
  base.warmup = kWarmup;
  const std::string base_key = cell_key(base);

  const AuditConfig audit = base.config.audit;
  const std::vector<std::pair<std::string, std::string>> knobs = {
      {"threads", "2"},
      {"fetch_width", "4"},
      {"fetch_threads", "1"},
      {"dispatch_width", "4"},
      {"issue_width", "4"},
      {"commit_width", "4"},
      {"decode_depth", "5"},
      {"frontend_buffer", "16"},
      {"rob1", "48"},
      {"rob2", "256"},
      {"iq", "32"},
      {"lsq", "32"},
      {"int_regs", "160"},
      {"fp_regs", "160"},
      {"reg_reserve", "8"},
      {"shared_regfile", "1"},
      {"policy", "icount"},
      {"scheme", "rrob"},
      {"threshold", "8"},
      {"recheck", "20"},
      {"cdr_delay", "16"},
      {"lease", "1000"},
      {"cooldown", "1000"},
      {"predictor_entries", "1024"},
      {"l2_kb", "1024"},
      {"l2_ways", "4"},
      {"l1d_kb", "64"},
      {"l1i_kb", "32"},
      {"mem_lat", "300"},
      {"interchunk", "4"},
      {"critical_bytes", "64"},
      {"mshr", "8"},
      {"seed", "7"},
      {"sample", "500"},
      {"cores", "2"},
      {"llc", "512"},
      {"dram", "4"},
      {"audit", audit.level == AuditLevel::kFull ? "off" : "full"},
      {"audit_cheap_interval", "3"},
      {"audit_full_interval", "5"},
      {"audit_abort", audit.abort_on_violation ? "0" : "1"},
  };
  for (const auto& [knob, value] : knobs) {
    Options opts;
    opts.set(knob, value);
    JobSpec js = base;
    js.config = apply_overrides(base.config, opts);
    js.seed = js.config.seed;  // a campaign's --seed reaches the cell this way
    EXPECT_NE(cell_key(js), base_key) << knob << "=" << value;
  }
  // The list above is every CLI key of the knob table plus the two specs.
  std::set<std::string> table_keys = {"llc", "dram"}, listed;
  for_each_knob(base.config, [&](const Knob& k, const auto&) {
    if (k.cli != nullptr) table_keys.insert(k.cli);
  });
  for (const auto& [knob, value] : knobs) listed.insert(knob);
  EXPECT_EQ(listed, table_keys);

  auto differs = [&](const char* what, auto mutate) {
    JobSpec js = base;
    mutate(js);
    EXPECT_NE(cell_key(js), base_key) << what;
  };
  differs("workload token", [](JobSpec& js) { js.mix.benchmarks[0] = "mcf"; });
  differs("workload order",
          [](JobSpec& js) { std::swap(js.mix.benchmarks[0], js.mix.benchmarks[1]); });
  differs("insts", [](JobSpec& js) { js.insts += 1; });
  differs("warmup", [](JobSpec& js) { js.warmup += 1; });
  differs("max_cycles", [](JobSpec& js) { js.max_cycles = 99999; });

  JobSpec renamed = base;
  renamed.index = 9;
  renamed.campaign = "other";
  renamed.config_name = "other";
  renamed.mix.name = "other";
  renamed.mix.classification = "other";
  renamed.sample_dir = "other";
  EXPECT_EQ(cell_key(renamed), base_key);
  EXPECT_EQ(cell_digest(base_key).size(), 16u);
  EXPECT_NE(cell_digest(base_key), cell_digest(cell_key(expand(small_spec())[1])));
}

// Many workers requesting one key at once: the first simulates, the rest
// wait for it and copy (runs in the TSan runner-test step).
TEST(RunnerMemo, ConcurrentRequestsForOneKeySimulateOnce) {
  clear_cell_memo();
  CampaignSpec spec = small_spec("memo_race");
  spec.columns.resize(1);
  spec.mixes.clear();
  for (int i = 0; i < 8; ++i) {
    Mix m = table2_mix(3);
    m.name = "copy " + std::to_string(i);
    spec.mixes.push_back(m);
  }
  EngineOptions eng;
  eng.jobs = 8;
  const CampaignResult res = run_campaign(spec, eng);
  EXPECT_EQ(res.ok, 8u);
  EXPECT_EQ(res.deduplicated, 7u);
  for (const JobRecord& rec : res.records)
    EXPECT_EQ(unnamed_json(rec), unnamed_json(res.records[0]));
}

TEST(RunnerMemo, FailedCellsAreAlwaysSimulated) {
  clear_cell_memo();
  CampaignSpec spec = small_spec("memo_failed");
  spec.max_cycles = 50;  // every cell hits the cap
  for (int run = 0; run < 2; ++run) {
    const CampaignResult res = run_campaign(spec, EngineOptions{});
    EXPECT_EQ(res.failed, 4u);
    EXPECT_EQ(res.deduplicated, 0u) << "run " << run;
  }
}

TEST(RunnerMemo, SampleDirCellsBypassTheMemo) {
  clear_cell_memo();
  const std::string dir = testing::TempDir();
  CampaignSpec sampled = small_spec("memo_sampled");
  for (ConfigColumn& c : sampled.columns) c.config.telemetry.sample_interval = 500;
  sampled.sample_dir = dir;
  for (int run = 0; run < 2; ++run) {
    for (u64 job = 0; job < 4; ++job)
      std::remove((dir + "/samples_memo_sampled_job" + std::to_string(job) + ".jsonl").c_str());
    const CampaignResult res = run_campaign(sampled, EngineOptions{});
    EXPECT_EQ(res.ok, 4u);
    EXPECT_EQ(res.deduplicated, 0u) << "run " << run;
    for (u64 job = 0; job < 4; ++job)  // every run writes its own series
      EXPECT_FALSE(read_file(dir + "/samples_memo_sampled_job" + std::to_string(job) + ".jsonl").empty());
  }
}

// A resumed sample_dir cell still writes its series: the journal holds the
// record, not the file, so such a cell re-runs like it bypasses the memo.
TEST(RunnerEngine, ResumeStillWritesSampleDirSeries) {
  clear_cell_memo();
  const std::string dir = testing::TempDir() + "tlrob_resume_samples";
  std::filesystem::create_directories(dir);
  const std::string manifest = temp_path("tlrob_resume_samples_manifest");
  std::remove(manifest.c_str());
  CampaignSpec sampled = small_spec("resume_sampled");
  for (ConfigColumn& c : sampled.columns) c.config.telemetry.sample_interval = 500;
  sampled.sample_dir = dir;
  EngineOptions eng;
  eng.manifest_path = manifest;
  EXPECT_EQ(run_campaign(sampled, eng).ok, 4u);

  for (u64 job = 0; job < 4; ++job)
    std::remove((dir + "/samples_resume_sampled_job" + std::to_string(job) + ".jsonl").c_str());
  eng.resume = true;
  const CampaignResult res = run_campaign(sampled, eng);
  EXPECT_EQ(res.ok, 4u);
  EXPECT_EQ(res.resumed, 0u);
  for (u64 job = 0; job < 4; ++job)
    EXPECT_FALSE(read_file(dir + "/samples_resume_sampled_job" + std::to_string(job) + ".jsonl").empty())
        << "job " << job;
}

// A resume loads the journal into the cell store, so a later campaign of
// the same cells in the same process copies them: nothing is simulated.
TEST(RunnerEngine, ResumedRecordsServeLaterCampaigns) {
  const std::string manifest = temp_path("tlrob_store_manifest");
  std::remove(manifest.c_str());
  const CampaignSpec spec = small_spec("store_campaign");
  EngineOptions eng;
  eng.manifest_path = manifest;
  clear_cell_memo();
  const CampaignResult first = run_campaign(spec, eng);
  ASSERT_EQ(first.ok, 4u);

  clear_cell_memo();  // as a fresh process would start
  eng.resume = true;
  EXPECT_EQ(run_campaign(spec, eng).resumed, 4u);
  const CampaignResult later = run_campaign(spec, EngineOptions{});
  EXPECT_EQ(later.ok, 4u);
  EXPECT_EQ(later.deduplicated, 4u);
  EXPECT_EQ(jsonl_of(later), jsonl_of(first));
  std::remove(manifest.c_str());
}

// run_campaign never truncates its journal: two campaigns on one manifest
// leave both runs' lines, references included.
TEST(RunnerEngine, ManifestAppendsAcrossCampaigns) {
  const std::string manifest = temp_path("tlrob_append_manifest");
  std::remove(manifest.c_str());
  const CampaignSpec spec = small_spec("append_campaign");
  EngineOptions eng;
  eng.manifest_path = manifest;
  EXPECT_EQ(run_campaign(spec, eng).ok, 4u);
  EXPECT_EQ(run_campaign(spec, eng).ok, 4u);
  const std::string journal = read_file(manifest);
  EXPECT_EQ(std::count(journal.begin(), journal.end(), '\n'),
            static_cast<long>(2 * (4 + reference_count(spec))));
  std::remove(manifest.c_str());
}

// The pool starts one worker per task at most, whatever --jobs asks for.
TEST(RunnerEngine, WorkersNeverOutnumberTasks) {
  CampaignSpec spec = small_spec("one_cell");
  spec.columns.resize(1);
  spec.mixes.resize(1);
  EngineOptions eng;
  eng.jobs = 4294967295u;
  const CampaignResult res = run_campaign(spec, eng);
  EXPECT_EQ(res.ok, 1u);
  EXPECT_EQ(res.workers, 1 + reference_count(spec));
}

TEST(RunnerCli, ParsesMixedOptionForms) {
  const char* argv[] = {"prog",   "fig2",         "--jobs",   "4",
                        "--insts=2000", "warmup=500", "--resume", "--max-cycles", "123"};
  const Options opts = Options::from_args(9, argv, kCampaignFlags);
  EXPECT_EQ(opts.get_u64("jobs", 0), 4u);
  EXPECT_EQ(opts.get_u64("insts", 0), 2000u);
  EXPECT_EQ(opts.get_u64("warmup", 0), 500u);
  EXPECT_TRUE(opts.get_bool("resume", false));
  EXPECT_EQ(opts.get_u64("max_cycles", 0), 123u);
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "fig2");
}

TEST(RunnerCli, CustomCampaignFromOptions) {
  Options opts;
  opts.set("schemes", "baseline32,rrob,prob");
  opts.set("thresholds", "8,16");
  opts.set("mixes", "1,3");
  opts.set("insts", "2000");
  opts.set("warmup", "400");
  const CampaignSpec spec = custom_campaign(opts);
  ASSERT_EQ(spec.columns.size(), 5u);  // baseline + 2 schemes x 2 thresholds
  EXPECT_EQ(spec.columns[0].name, "Baseline_32");
  EXPECT_EQ(spec.columns[1].name, "R-ROB8");
  EXPECT_EQ(spec.columns[2].name, "R-ROB16");
  EXPECT_EQ(spec.columns[3].name, "P-ROB8");
  EXPECT_EQ(spec.columns[4].name, "P-ROB16");
  ASSERT_EQ(spec.mixes.size(), 2u);
  EXPECT_EQ(spec.mixes[1].name, "Mix 3");
  EXPECT_EQ(spec.lengths[0].insts, 2000u);

  Options bad;
  bad.set("schemes", "nonsense");
  EXPECT_THROW(custom_campaign(bad), std::invalid_argument);
}

// --cores and --workload go through trace::threads_per_core: cores=0 and a
// list the core count does not divide are rejected before anything runs,
// and a malformed list item names its option.
TEST(RunnerCli, CoreSplitRejectsZeroCoresAndIndivisibleLists) {
  Options cores0;
  cores0.set("cores", "0");
  EXPECT_THROW(custom_campaign(cores0), std::invalid_argument);

  Options three;
  three.set("cores", "3");  // Table 2 mixes have four entries
  EXPECT_THROW(custom_campaign(three), std::invalid_argument);

  Options split;
  split.set("cores", "2");
  split.set("workload", "tracegen:art@500,mcf,art,tracegen:mcf@500");
  const CampaignSpec spec = campaign_list("", split).at(0).spec;
  ASSERT_EQ(spec.mixes.size(), 1u);
  EXPECT_EQ(spec.mixes[0].benchmarks.size(), 4u);
  for (const auto& c : spec.columns) {
    EXPECT_EQ(c.config.num_cores, 2u);
    EXPECT_EQ(c.config.num_threads, 2u);
  }
  split.set("workload", "art,mcf,art");
  EXPECT_THROW(campaign_list("", split), std::invalid_argument);

  // A preset goes through the same split: cmp_mix columns have two cores.
  Options preset;
  preset.set("insts", "1000");
  preset.set("warmup", "200");
  preset.set("no_render", "1");
  preset.set("workload", "art,mcf,art");
  EXPECT_THROW(run_from_options("cmp_mix", preset), std::invalid_argument);

  Options bad_threshold;
  bad_threshold.set("thresholds", "abc");
  try {
    custom_campaign(bad_threshold);
    ADD_FAILURE() << "--thresholds abc accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("thresholds"), std::string::npos) << e.what();
  }
}

// "-" is the stdout value of --json, before or after the preset.
TEST(RunnerCli, DashIsAValueInBothArgumentOrders) {
  {
    const char* argv[] = {"prog", "fig2", "--json", "-"};
    const Options opts = Options::from_args(4, argv, kCampaignFlags);
    EXPECT_EQ(opts.get("json"), "-");
    ASSERT_EQ(opts.positional().size(), 1u);
    EXPECT_EQ(opts.positional()[0], "fig2");
  }
  {
    const char* argv[] = {"prog", "--json", "-", "fig2"};
    const Options opts = Options::from_args(4, argv, kCampaignFlags);
    EXPECT_EQ(opts.get("json"), "-");
    ASSERT_EQ(opts.positional().size(), 1u);
    EXPECT_EQ(opts.positional()[0], "fig2");
  }

  const char* argv[] = {"prog", "--json", "-", "fig2", "--no-render", "--insts", "1500",
                        "--warmup", "300", "--jobs", "2"};
  const Options opts = Options::from_args(11, argv, kCampaignFlags);
  testing::internal::CaptureStdout();
  const int rc = run_from_options(opts.positional()[0], opts);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 33);  // fig2: 3 columns x 11 mixes
  EXPECT_EQ(out.rfind("{\"job\":0,\"campaign\":\"fig2\"", 0), 0u);
}

// Options nothing reads are rejected before anything runs: exit 2, with the
// option named on stderr.
TEST(RunnerCli, UnknownOptionsExitTwoNamingTheFlag) {
  auto run = [](const std::string& preset, std::vector<const char*> argv) {
    testing::internal::CaptureStderr();
    const int rc = preset_main(preset, static_cast<int>(argv.size()), argv.data());
    return std::make_pair(rc, testing::internal::GetCapturedStderr());
  };
  const auto corez = run("", {"prog", "--schemes", "baseline32", "--mixes", "1", "--insts",
                              "2000", "--warmup", "500", "--corez", "2"});
  EXPECT_EQ(corez.first, 2);
  EXPECT_NE(corez.second.find("--corez"), std::string::npos) << corez.second;
  EXPECT_EQ(corez.second.find("campaign custom"), std::string::npos) << "ran anyway";

  const auto parallel = run("", {"prog", "--schemes", "baseline32", "--mixes", "1", "--insts",
                                 "2000", "--warmup", "500", "--parallel-cores", "2"});
  EXPECT_EQ(parallel.first, 2);
  EXPECT_NE(parallel.second.find("--parallel-cores"), std::string::npos) << parallel.second;

  // A custom-sweep option given to a preset has no effect, so it is an
  // error too.
  const auto preset_seed = run("fig2", {"prog", "fig2", "--insts", "2000", "--seed", "7"});
  EXPECT_EQ(preset_seed.first, 2);
  EXPECT_NE(preset_seed.second.find("--seed"), std::string::npos) << preset_seed.second;
}

TEST(RunnerCli, PresetListsExpand) {
  EXPECT_EQ(preset_list("fig2"), std::vector<std::string>{"fig2"});
  EXPECT_EQ(preset_list("fig2,fig3,fig6"), (std::vector<std::string>{"fig2", "fig3", "fig6"}));
  EXPECT_EQ(preset_list("all"), preset_names());
  EXPECT_THROW(preset_list("fig2,fig99"), std::invalid_argument);
  EXPECT_THROW(preset_list("fig2,"), std::invalid_argument);
}

// One multi-preset run shares the memo across presets, and its sinks are
// byte-identical to the three separate runs concatenated.
TEST(RunnerCli, MultiPresetRunMatchesSeparateRunsConcatenated) {
  const std::string manifest = temp_path("tlrob_multi_manifest");
  auto run = [&](const std::string& presets, const std::string& json) {
    clear_cell_memo();  // as a fresh process would start
    Options opts;
    opts.set("insts", std::to_string(kInsts));
    opts.set("warmup", std::to_string(kWarmup));
    opts.set("jobs", "2");
    opts.set("no_render", "1");
    opts.set("json", json);
    opts.set("manifest", manifest);
    EXPECT_EQ(run_from_options(presets, opts), 0) << presets;
    return read_file(json);
  };
  const std::string combined = run("fig2,fig3,fig6", temp_path("tlrob_multi"));
  // Later presets append to the journal instead of truncating it. Each
  // preset also journals the reference cells its records weigh by.
  const std::string journal = read_file(manifest);
  size_t references = 0;
  for (const char* preset : {"fig2", "fig3", "fig6"})
    references += reference_count(preset_campaign(preset, {kInsts, kWarmup}));
  EXPECT_EQ(std::count(journal.begin(), journal.end(), '\n'),
            static_cast<long>(99 + references));
  std::remove(manifest.c_str());
  std::string json;
  for (const char* preset : {"fig2", "fig3", "fig6"})
    json += run(preset, temp_path(std::string("tlrob_") + preset));
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 99);
  EXPECT_EQ(combined, json);
}

TEST(RunnerPresets, AllPresetsExpand) {
  for (const auto& name : preset_names()) {
    EXPECT_TRUE(is_preset(name));
    EXPECT_FALSE(preset_summary(name).empty());
    const CampaignSpec spec = preset_campaign(name, {1000, 200});
    EXPECT_FALSE(expand(spec).empty()) << name;
  }
  EXPECT_FALSE(is_preset("fig99"));
  EXPECT_THROW(preset_campaign("fig99", {1000, 200}), std::invalid_argument);
}

// Every preset runs its tables and epilogue, so every by-name counter read
// in an epilogue (column_counter throws on an absent name) executes here.
TEST(RunnerPresets, EveryPresetRenders) {
  Options opts;
  opts.set("insts", "1000");
  opts.set("warmup", "200");
  opts.set("jobs", "2");
  for (const auto& name : preset_names()) {
    testing::internal::CaptureStdout();
    EXPECT_NO_THROW(run_from_options(name, opts)) << name;
    EXPECT_FALSE(testing::internal::GetCapturedStdout().empty()) << name;
  }
}

}  // namespace
}  // namespace tlrob::runner

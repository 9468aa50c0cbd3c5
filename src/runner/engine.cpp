#include "runner/engine.hpp"

#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>

#include "common/sync.hpp"
#include "obs/interval_sampler.hpp"
#include "common/thread_pool.hpp"
#include "sim/experiment.hpp"
#include "trace/resolve.hpp"

namespace tlrob::runner {

namespace {

/// Everything execute_job records but the single-thread weights (st_ipc,
/// ft), which weigh() adds.
JobRecord simulate_job(const JobSpec& spec) {
  JobRecord rec;
  rec.job = spec.index;
  rec.campaign = spec.campaign;
  rec.config = spec.config_name;
  rec.mix = spec.mix.name;
  rec.scheme = scheme_name(spec.config);
  rec.threshold = spec.config.rob.dod_threshold;
  rec.insts = spec.insts;
  rec.warmup = spec.warmup;
  rec.max_cycles = spec.max_cycles;
  rec.seed = spec.seed;
  try {
    MachineConfig cfg = spec.config;
    cfg.seed = spec.seed;
    // Workload resolution happens inside the try: a missing or malformed
    // trace file fails this cell with a structured record, not the process.
    const RunResult run = run_benchmarks(cfg, trace::resolve_mix_benchmarks(spec.mix),
                                         spec.insts, spec.max_cycles, spec.warmup);

    rec.cycles = run.cycles;
    for (const auto& t : run.threads) {
      rec.benchmarks.push_back(t.benchmark);
      rec.committed.push_back(t.committed);
      rec.mt_ipc.push_back(t.ipc);
    }
    rec.throughput = run.total_throughput();
    rec.dod_true = {run.dod_true.total_samples(),
                    run.dod_true.mean() * static_cast<double>(run.dod_true.total_samples()),
                    {}};
    rec.dod_proxy = {
        run.dod_proxy.total_samples(),
        run.dod_proxy.mean() * static_cast<double>(run.dod_proxy.total_samples()),
        {}};
    for (u32 v = 0; v <= run.dod_true.max_value(); ++v)
      rec.dod_true.buckets.push_back(run.dod_true.bucket(v));
    for (u32 v = 0; v <= run.dod_proxy.max_value(); ++v)
      rec.dod_proxy.buckets.push_back(run.dod_proxy.bucket(v));
    rec.counters = run.counters;
    // Telemetry summary rides the record's counter map — it round-trips
    // through to_json_line / the manifest like any other counter, and is a
    // pure function of the JobSpec (so identical for any worker count).
    for (const auto& [name, v] : obs::series_summary_counters(run.samples))
      rec.counters[name] = v;
    // Same contract for the stall taxonomy and the CMP interference rollup:
    // structured RunResult fields flattened here (never inside the core, so
    // a telemetry-on run's engine counters stay identical to telemetry-off).
    for (const auto& [name, v] : obs::stall_summary_counters(run.stall_cycles))
      rec.counters[name] = v;
    if (cfg.has_shared_backend())
      for (const auto& [name, v] :
           obs::cmp_summary_counters(run.samples, run.stall_cycles, cfg.num_cores))
        rec.counters[name] = v;
    if (!run.samples.empty() && !spec.sample_dir.empty()) {
      const std::string path =
          spec.sample_dir + "/samples_job" + std::to_string(spec.index) + ".jsonl";
      std::ofstream out(path);
      if (!out.is_open()) throw std::runtime_error("cannot open sample sink: " + path);
      run.samples.write_jsonl(out);
    }

    rec.error = run.cycle_cap_error(spec.insts);
    if (!rec.error.empty()) rec.status = JobStatus::kFailed;
  } catch (const std::exception& e) {
    rec.status = JobStatus::kFailed;
    rec.error = e.what();
  }
  return rec;
}

/// Adds a simulated record's single-thread references (st_ipc) and fair
/// throughput. It runs outside every memo slot, because a reference cell
/// weighs by its own key.
void weigh(JobRecord& rec) {
  if (rec.benchmarks.empty()) return;  // the simulation threw
  try {
    rec.st_ipc.clear();
    for (const std::string& b : rec.benchmarks)
      rec.st_ipc.push_back(single_thread_ipc(b, rec.insts));
    rec.ft = fair_throughput(rec.mt_ipc, rec.st_ipc);
  } catch (const std::exception& e) {
    rec.status = JobStatus::kFailed;
    rec.error = e.what();
  }
}

/// Memo slot for one cell_key: the once_flag serialises the simulation, and
/// `record` is written exactly once under it. The record is kept as its
/// JSON line, a third of its in-memory size. It stays empty when the cell
/// must not be served from the memo, so every later request simulates for
/// itself: the cell failed, or its line does not round-trip exactly (a
/// non-finite double is written as null).
struct CellMemoEntry {
  std::once_flag once;
  std::string record;
};

/// Guards the memo map's shape. Entries are shared_ptrs so a request that
/// already holds one stays valid across clear_cell_memo().
Mutex cell_memo_mu;
std::map<std::string, std::shared_ptr<CellMemoEntry>> cell_memo TLROB_GUARDED_BY(cell_memo_mu);

std::shared_ptr<CellMemoEntry> memo_entry(const std::string& key) {
  MutexLock lock(cell_memo_mu);
  auto& slot = cell_memo[key];
  if (!slot) slot = std::make_shared<CellMemoEntry>();
  return slot;
}

/// What the memo stores for `rec`: its JSON line, or nothing when the
/// record must not be served.
std::string memo_line(const JobRecord& rec) {
  if (!rec.ok()) return "";
  std::string line = to_json_line(rec);
  return to_json_line(record_from_json_line(line)) == line ? line : "";
}

/// A stored record as the cell `js` would have produced it.
JobRecord restamped(JobRecord rec, const JobSpec& js) {
  rec.job = js.index;
  rec.campaign = js.campaign;
  rec.config = js.config_name;
  rec.mix = js.mix.name;
  return rec;
}

/// Simulates `js` through the memo, without weights. Sets *deduplicated
/// when the record is a copy of an earlier simulation.
JobRecord memo_simulate(const JobSpec& js, const std::string& key, bool* deduplicated) {
  *deduplicated = false;
  // A sample_dir cell must write its own series file, so its output is not
  // a pure function of cell_key.
  if (!js.sample_dir.empty()) return simulate_job(js);
  const std::shared_ptr<CellMemoEntry> entry = memo_entry(key);
  // Concurrent requests for the key block here until the first finishes.
  std::optional<JobRecord> fresh;
  std::call_once(entry->once, [&] {
    fresh = simulate_job(js);
    entry->record = memo_line(*fresh);
  });
  if (fresh) return std::move(*fresh);
  if (entry->record.empty()) return simulate_job(js);
  *deduplicated = true;
  return restamped(record_from_json_line(entry->record), js);
}

/// Stores a journalled record under `key`, unless the key already has one.
void seed_memo(const std::string& key, const JobRecord& rec) {
  const std::shared_ptr<CellMemoEntry> entry = memo_entry(key);
  std::call_once(entry->once, [&] { entry->record = memo_line(rec); });
}

/// The reference cells `jobs` weigh by: one per distinct (workload token,
/// insts). A token is the benchmark name its thread's record carries.
std::vector<JobSpec> reference_jobs(const std::vector<JobSpec>& jobs) {
  std::set<std::pair<std::string, u64>> seen;
  std::vector<JobSpec> refs;
  for (const JobSpec& js : jobs)
    for (const std::string& b : js.mix.benchmarks)
      if (seen.emplace(b, js.insts).second) refs.push_back(reference_job(b, js.insts));
  return refs;
}

/// A manifest line: the record's JSON line plus its cell digest.
std::string manifest_line(const JobRecord& rec, const std::string& digest) {
  std::string line = to_json_line(rec);
  line.pop_back();  // the record object's closing brace
  return line + ",\"cell\":" + json_escape(digest) + "}";
}

/// Loads successful records from a manifest journal, keyed by cell digest.
/// Lines without a digest (journals from before it existed), unreadable and
/// malformed lines are skipped: a journal truncated by a crash mid-line
/// must not poison the resume, and an old line may describe a different
/// machine under the same names. Ordered map on purpose (lint rule D1):
/// anything that later iterates or emits the resume set must see one key
/// order regardless of the journal's completion order.
std::map<std::string, JobRecord> load_manifest(const std::string& path) {
  std::map<std::string, JobRecord> by_digest;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const JsonValue v = parse_json(line);
      const std::string& digest = v.at("cell").as_string();
      if (digest.empty()) continue;
      JobRecord rec = record_from_json(v);
      if (rec.ok()) by_digest[digest] = std::move(rec);
    } catch (const std::invalid_argument&) {
      continue;
    }
  }
  return by_digest;
}

/// Serialises completions back into expansion order before any sink or the
/// result vector sees them.
class InOrderEmitter {
 public:
  InOrderEmitter(const EngineOptions& opts, std::ofstream* manifest, CampaignResult* result)
      : opts_(opts), manifest_(manifest), result_(result) {}

  enum class Origin : u8 { kSimulated, kDeduplicated, kResumed };

  void complete(JobRecord rec, Origin origin, const std::string& digest) {
    MutexLock lock(mu_);
    if (origin != Origin::kResumed) write_journal(rec, digest);
    if (origin == Origin::kResumed)
      ++result_->resumed;
    else if (rec.ok())
      ++result_->ok;
    else
      ++result_->failed;
    if (origin == Origin::kDeduplicated) ++result_->deduplicated;

    pending_.emplace(rec.job, std::move(rec));
    while (!pending_.empty() && pending_.begin()->first == next_) {
      JobRecord& head = pending_.begin()->second;
      for (ResultSink* sink : opts_.sinks) sink->emit(head);
      result_->records.push_back(std::move(head));
      pending_.erase(pending_.begin());
      ++next_;
    }
  }

  /// A reference cell reaches the journal only: no sink, record or tally.
  void complete_reference(const JobRecord& rec, const std::string& digest) {
    MutexLock lock(mu_);
    write_journal(rec, digest);
  }

 private:
  /// Journals in completion order: the manifest is a log, not a sink.
  void write_journal(const JobRecord& rec, const std::string& digest) TLROB_REQUIRES(mu_) {
    if (manifest_ == nullptr || !manifest_->is_open()) return;
    *manifest_ << manifest_line(rec, digest) << "\n";
    manifest_->flush();
  }

  const EngineOptions& opts_;
  /// mu_ serialises completions from pool workers: it guards the reorder
  /// window and, via the emitter being their only caller, the manifest
  /// stream, the result tallies and every sink's emit().
  Mutex mu_;
  std::ofstream* manifest_ TLROB_PT_GUARDED_BY(mu_);
  CampaignResult* result_ TLROB_PT_GUARDED_BY(mu_);
  std::map<u64, JobRecord> pending_ TLROB_GUARDED_BY(mu_);
  u64 next_ TLROB_GUARDED_BY(mu_) = 0;
};

}  // namespace

JobRecord execute_job(const JobSpec& spec) {
  JobRecord rec = simulate_job(spec);
  weigh(rec);
  return rec;
}

JobSpec reference_job(const std::string& benchmark, u64 insts) {
  JobSpec js;
  js.config_name = "single-thread";
  js.config = single_thread_config();
  js.mix.name = benchmark;
  js.mix.benchmarks = {benchmark};
  js.insts = insts;
  js.warmup = kDefaultWarmup;
  js.seed = js.config.seed;
  return js;
}

CampaignResult run_campaign(const CampaignSpec& spec, const EngineOptions& opts) {
  const std::vector<JobSpec> jobs = expand(spec);

  std::map<std::string, JobRecord> done;
  if (opts.resume && !opts.manifest_path.empty()) done = load_manifest(opts.manifest_path);

  std::ofstream manifest;
  if (!opts.manifest_path.empty()) {
    manifest.open(opts.manifest_path,
                  opts.resume || opts.append_manifest ? std::ios::app : std::ios::trunc);
    if (!manifest.is_open())
      throw std::runtime_error("cannot open manifest: " + opts.manifest_path);
  }

  for (ResultSink* sink : opts.sinks) sink->begin(spec, jobs);

  CampaignResult result;
  result.records.reserve(jobs.size());
  InOrderEmitter emitter(opts, &manifest, &result);

  // The resume lookup of a reference cell: a journalled one seeds the memo
  // and needs no task. It runs before any cell, so a cell's weights never
  // depend on which worker reaches a reference first. The references left
  // are not in the journal, so run_one's lookup only ever finds cells.
  std::vector<JobSpec> refs;
  for (JobSpec& ref : reference_jobs(jobs)) {
    if (!done.empty()) {
      try {
        const std::string key = cell_key(ref);
        if (const auto it = done.find(cell_digest(key)); it != done.end()) {
          seed_memo(key, it->second);
          continue;
        }
      } catch (const std::exception&) {
        continue;  // an unloadable trace: the cells that run it fail
      }
    }
    refs.push_back(std::move(ref));
  }

  using Origin = InOrderEmitter::Origin;
  auto run_one = [&](const JobSpec& js, bool reference) {
    std::string key;
    try {
      key = cell_key(js);
    } catch (const std::exception&) {
      // A trace file that does not load has no content to key on: skip the
      // memo and the resume lookup, and let execute_job record the failure.
      // An empty digest keeps the journal line out of any later resume.
      if (!reference) emitter.complete(execute_job(js), Origin::kSimulated, "");
      return;
    }
    const std::string digest = cell_digest(key);
    if (const auto it = done.find(digest); it != done.end()) {
      // The journalled cell may sit elsewhere, or under other names.
      emitter.complete(restamped(it->second, js), Origin::kResumed, digest);
      return;
    }
    bool deduplicated = false;
    JobRecord rec = memo_simulate(js, key, &deduplicated);
    weigh(rec);
    if (reference)
      emitter.complete_reference(rec, digest);
    else
      emitter.complete(std::move(rec), deduplicated ? Origin::kDeduplicated : Origin::kSimulated,
                       digest);
  };

  // Tasks start in queue order, so the references, queued first, start
  // ahead of the cells that weigh by them.
  ThreadPool pool(opts.jobs);
  for (const JobSpec& ref : refs) pool.submit([&run_one, &ref] { run_one(ref, true); });
  for (const JobSpec& js : jobs) pool.submit([&run_one, &js] { run_one(js, false); });
  pool.wait_idle();

  for (ResultSink* sink : opts.sinks) sink->end();
  return result;
}

void clear_cell_memo() {
  MutexLock lock(cell_memo_mu);
  cell_memo.clear();
}

}  // namespace tlrob::runner

namespace tlrob {

double single_thread_ipc(const std::string& benchmark, u64 commit_target) {
  const runner::JobSpec js = runner::reference_job(benchmark, commit_target);
  bool deduplicated = false;
  const runner::JobRecord rec = runner::memo_simulate(js, runner::cell_key(js), &deduplicated);
  if (!rec.ok())
    throw std::runtime_error("single-thread reference " + benchmark + ": " + rec.error);
  return rec.mt_ipc.at(0);
}

}  // namespace tlrob

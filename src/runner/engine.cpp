#include "runner/engine.hpp"

#include <algorithm>
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
#include "sim/cmp.hpp"
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
    const RunResult run = CmpMachine(cfg, trace::resolve_mix_benchmarks(spec.mix))
                              .run(spec.insts, spec.max_cycles, spec.warmup);

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
      const std::string path = spec.sample_dir + "/samples_" + spec.campaign + "_job" +
                               std::to_string(spec.index) + ".jsonl";
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

/// Adds a record's single-thread references (st_ipc) and fair throughput,
/// stored and journalled records' too. It runs outside every store slot,
/// because a reference cell weighs by its own key.
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

/// One finished cell: `record` is its JSON line (a third of a JobRecord's
/// size), written once under `once`, or empty when the cell must not be
/// served (it failed, or its line does not round-trip). `key` is the
/// cell_key this process simulated it under; a journal entry has none.
struct StoredCell {
  std::once_flag once;
  std::string key;
  std::string record;
};

/// The cell store, keyed by cell_digest. Entries are shared_ptrs so a
/// request that holds one stays valid across clear_cell_memo().
Mutex cell_store_mu;
std::map<std::string, std::shared_ptr<StoredCell>> cell_store TLROB_GUARDED_BY(cell_store_mu);

std::shared_ptr<StoredCell> stored_cell(const std::string& digest) {
  MutexLock lock(cell_store_mu);
  auto& slot = cell_store[digest];
  if (!slot) slot = std::make_shared<StoredCell>();
  return slot;
}

/// What the store keeps for `rec`: its JSON line, or nothing when the
/// record must not be served.
std::string stored_line(const JobRecord& rec) {
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

/// Simulates `js` through the store, without weights. Sets *stored when
/// the record is a stored copy; a hit on a simulated entry compares keys.
JobRecord store_simulate(const JobSpec& js, const std::string& key, const std::string& digest,
                         bool* stored) {
  *stored = false;
  // A sample_dir cell must write its own series file, so its output is not
  // a pure function of cell_key.
  if (!js.sample_dir.empty()) return simulate_job(js);
  const std::shared_ptr<StoredCell> entry = stored_cell(digest);
  // Concurrent requests for the cell block here until the first finishes.
  std::optional<JobRecord> fresh;
  std::call_once(entry->once, [&] {
    fresh = simulate_job(js);
    entry->key = key;
    entry->record = stored_line(*fresh);
  });
  if (fresh) return std::move(*fresh);
  if (!entry->key.empty() && entry->key != key)
    throw std::logic_error("cell digest " + digest + " names two different cells");
  if (entry->record.empty()) return simulate_job(js);
  *stored = true;
  return restamped(record_from_json_line(entry->record), js);
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

/// Loads a journal's successful records into the cell store (a digest it
/// holds keeps its entry) and returns their digests. Malformed lines (a
/// crash mid-line) and lines without a digest (older journals) are skipped.
/// Ordered set on purpose (lint rule D1): one order whatever the journal's.
std::set<std::string> load_manifest(const std::string& path) {
  std::set<std::string> digests;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const JsonValue v = parse_json(line);
      const std::string& digest = v.at("cell").as_string();
      if (digest.empty()) continue;
      const JobRecord rec = record_from_json(v);
      if (!rec.ok()) continue;
      const std::shared_ptr<StoredCell> entry = stored_cell(digest);
      std::call_once(entry->once, [&] { entry->record = stored_line(rec); });
      digests.insert(digest);
    } catch (const std::invalid_argument&) {
      continue;
    }
  }
  return digests;
}

/// True when the file at `path` is non-empty and its last byte is not a
/// newline: a journal truncated mid-line.
bool ends_mid_line(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in || in.tellg() <= 0) return false;
  in.seekg(-1, std::ios::end);
  return in.get() != '\n';
}

/// Serialises completions back into expansion order before any sink or the
/// result vector sees them.
class InOrderEmitter {
 public:
  InOrderEmitter(const EngineOptions& opts, std::ofstream* manifest, CampaignResult* result)
      : opts_(opts), manifest_(manifest), result_(result) {}

  enum class Origin : u8 { kSimulated, kDeduplicated, kResumed };

  /// A reference cell reaches the journal only: no sink, record or tally.
  /// A resumed cell is journalled already.
  void complete(JobRecord rec, Origin origin, const std::string& digest, bool reference) {
    MutexLock lock(mu_);
    if (origin != Origin::kResumed) write_journal(rec, digest);
    if (reference) return;
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

  // A cell served from the store is resumed when its digest is journalled.
  std::set<std::string> journalled;
  if (opts.resume && !opts.manifest_path.empty()) journalled = load_manifest(opts.manifest_path);

  std::ofstream manifest;
  if (!opts.manifest_path.empty()) {
    manifest.open(opts.manifest_path, std::ios::app);
    if (!manifest.is_open())
      throw std::runtime_error("cannot open manifest: " + opts.manifest_path);
    // A journal cut by a crash ends in a fragment: the first appended line
    // starts fresh, or load_manifest would skip it glued to the fragment.
    if (ends_mid_line(opts.manifest_path)) manifest << "\n";
  }

  for (ResultSink* sink : opts.sinks) sink->begin(spec, jobs);

  CampaignResult result;
  result.records.reserve(jobs.size());
  InOrderEmitter emitter(opts, &manifest, &result);

  using Origin = InOrderEmitter::Origin;
  auto run_one = [&](const JobSpec& js, bool reference) {
    std::string key;
    try {
      key = cell_key(js);
    } catch (const std::exception&) {
      // A trace file that does not load has no content to key on: skip the
      // store, and let execute_job record the failure. An empty digest
      // keeps the journal line out of any later resume.
      if (!reference) emitter.complete(execute_job(js), Origin::kSimulated, "", false);
      return;
    }
    const std::string digest = cell_digest(key);
    bool stored = false;
    JobRecord rec = store_simulate(js, key, digest, &stored);
    weigh(rec);
    const Origin origin = !stored                      ? Origin::kSimulated
                          : journalled.count(digest) ? Origin::kResumed
                                                     : Origin::kDeduplicated;
    emitter.complete(std::move(rec), origin, digest, reference);
  };

  // Tasks start in queue order, so the references, queued first, start
  // ahead of the cells that weigh by them. No worker starts without a task.
  const std::vector<JobSpec> refs = reference_jobs(jobs);
  result.workers = static_cast<u32>(
      std::min<u64>(ThreadPool::resolve_threads(opts.jobs), refs.size() + jobs.size()));
  ThreadPool pool(result.workers);
  for (const JobSpec& ref : refs) pool.submit([&run_one, &ref] { run_one(ref, true); });
  for (const JobSpec& js : jobs) pool.submit([&run_one, &js] { run_one(js, false); });
  pool.wait_idle();

  for (ResultSink* sink : opts.sinks) sink->end();
  return result;
}

void clear_cell_memo() {
  MutexLock lock(cell_store_mu);
  cell_store.clear();
}

}  // namespace tlrob::runner

namespace tlrob {

double single_thread_ipc(const std::string& benchmark, u64 commit_target) {
  const runner::JobSpec js = runner::reference_job(benchmark, commit_target);
  const std::string key = runner::cell_key(js);
  bool stored = false;
  const runner::JobRecord rec = runner::store_simulate(js, key, runner::cell_digest(key), &stored);
  if (!rec.ok())
    throw std::runtime_error("single-thread reference " + benchmark + ": " + rec.error);
  return rec.mt_ipc.at(0);
}

}  // namespace tlrob

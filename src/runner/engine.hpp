// The campaign engine: expands a CampaignSpec, executes the jobs on a
// thread pool of at most EngineOptions::jobs workers (its reference cells
// queued first), and streams JobRecords to the sinks in expansion order.
//
// Determinism contract: a campaign's records — and therefore every sink's
// bytes — are identical for any worker count, because (a) each job is a
// pure function of its JobSpec (the simulator is deterministic given a
// config and seed, and each job's seed is fixed at expansion time), (b) the
// single-thread references the records weigh by are cells too, pure
// functions of their own JobSpecs (reference_job) served by the one cell
// store below, and (c) completions pass through an in-order emission window
// before reaching any sink.
//
// Cell store: a cell is a pure function of its content (cell_key), so the
// process keeps one store of finished cells, keyed by cell_digest, and
// simulates each distinct cell once. A repeat — in any campaign — is a copy
// of the stored record, restamped with the repeat's index and names. Failed
// cells, sample_dir cells and cells whose trace file does not load are
// always simulated. Weights (st_ipc, ft) are looked up after the store.
//
// Robustness contract: a job that throws, or whose simulation fails to
// reach its commit target within its cycle cap (the simulator cannot hang,
// only diverge), is recorded "failed" and the campaign continues. With a
// manifest, every record not resumed, references included, is appended to
// the journal with its cell_digest. Resuming loads the journal into the
// store first; a store hit whose digest is journalled is resumed.
#pragma once

#include <string>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/sinks.hpp"

namespace tlrob::runner {

struct EngineOptions {
  /// Pool workers, at most one per task; 0 = hardware concurrency. One
  /// worker runs the tasks serially, in queue order.
  u32 jobs = 1;

  /// Sinks receiving records in expansion order. Not owned.
  std::vector<ResultSink*> sinks;

  /// Journal of completed cells, appended to: JSON lines of JobRecords,
  /// each with an extra "cell" member holding its cell_digest. Empty = none.
  std::string manifest_path;

  /// Load the manifest's successful records into the cell store first: the
  /// cells they match are resumed here and copied by later campaigns.
  bool resume = false;
};

struct CampaignResult {
  std::vector<JobRecord> records;  // expansion order
  u32 ok = 0;       // ran to the commit target this time
  u32 failed = 0;   // threw, or hit the cycle cap
  u32 resumed = 0;  // replayed from the manifest without re-running
  u32 deduplicated = 0;  // of `ok`: copied from the cell store, not simulated
  u32 workers = 0;       // pool workers started
};

/// Executes one cell, weights included, outside the store. Exposed for
/// tests and for callers that want a single cell without engine machinery;
/// run_campaign runs the same simulation and weighting through the store.
JobRecord execute_job(const JobSpec& spec);

/// The single-thread reference cell of `benchmark` at `insts` (PAPER.md §3:
/// weighted IPC divides by the IPC "in a single-threaded situation"):
/// single_thread_config() on that one workload, kDefaultWarmup, no cycle
/// cap and the config's own seed, whatever the campaign's warmup and seed.
/// Its column is "single-thread" and its mix is named after the benchmark.
/// run_campaign adds one per distinct (benchmark, insts) its cells weigh
/// by and journals it, but it reaches no sink, record list or tally.
/// single_thread_ipc (sim/experiment.hpp) is its IPC, read through the
/// cell store.
JobSpec reference_job(const std::string& benchmark, u64 insts);

CampaignResult run_campaign(const CampaignSpec& spec, const EngineOptions& opts);

/// Empties the process-wide cell store. For tests that compare two runs of
/// the same cell: without it the second run would be a copy of the first.
void clear_cell_memo();

}  // namespace tlrob::runner

// The campaign engine: expands a CampaignSpec, executes the jobs on a
// thread pool of EngineOptions::jobs workers (its reference cells queued
// first), and streams JobRecords to the sinks in expansion order.
//
// Determinism contract: a campaign's records — and therefore every sink's
// bytes — are identical for any worker count, because (a) each job is a
// pure function of its JobSpec (the simulator is deterministic given a
// config and seed, and per-job seeds are fixed at expansion time), (b) the
// single-thread references the records weigh by are cells too, pure
// functions of their own JobSpecs (reference_job) served by the one cell
// memo below, and (c) completions pass through an in-order emission window
// before reaching any sink.
//
// Cell memo: because a cell is a pure function of its content (cell_key),
// run_campaign simulates each distinct key once per process. A repeat — in
// the same campaign or any later one, such as a Baseline_32 column shared
// by several presets — is a copy of the first record, restamped with the
// repeat's job index, campaign, column and mix names. Failed cells, cells
// writing a sample series (sample_dir) and cells whose trace file does not
// load (cell_key throws) are always simulated. The memo holds simulations;
// a record's weights (st_ipc, ft) are looked up afterwards, outside its
// memo slot, since a reference cell weighs by its own key.
//
// Robustness contract: a job that throws, or whose simulation fails to
// reach its commit target within its cycle cap (the timeout mechanism — the
// simulator is single-stepped and cannot hang, it can only diverge), is
// recorded with status "failed" and the campaign continues. When a manifest
// path is set, every completed record is journalled with its cell_digest,
// and so is every reference cell the campaign weighs by; resuming replays
// previously successful cells whose digest matches, seeds the memo with the
// journalled references and executes only the rest.
#pragma once

#include <string>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/sinks.hpp"

namespace tlrob::runner {

struct EngineOptions {
  /// Pool workers; 0 = hardware concurrency. One worker runs the tasks
  /// serially, in queue order.
  u32 jobs = 1;

  /// Sinks receiving records in expansion order. Not owned.
  std::vector<ResultSink*> sinks;

  /// Journal of completed cells: JSON lines of JobRecords, each with an
  /// extra "cell" member holding its cell_digest. Empty = none.
  std::string manifest_path;

  /// Replay successful cells found in the manifest instead of re-running
  /// them; failed cells are always retried.
  bool resume = false;

  /// Append to the manifest instead of truncating it when not resuming
  /// (the later campaigns of one multi-preset run share a journal).
  bool append_manifest = false;
};

struct CampaignResult {
  std::vector<JobRecord> records;  // expansion order
  u32 ok = 0;       // ran to the commit target this time
  u32 failed = 0;   // threw, or hit the cycle cap
  u32 resumed = 0;  // replayed from the manifest without re-running
  u32 deduplicated = 0;  // of `ok`: copied from the cell memo, not simulated
};

/// Executes one cell, weights included, outside the memo. Exposed for tests
/// and for callers that want a single cell without engine machinery;
/// run_campaign runs the same simulation and weighting through the memo.
JobRecord execute_job(const JobSpec& spec);

/// The single-thread reference cell of `benchmark` at `insts` (PAPER.md §3:
/// weighted IPC divides by the IPC "in a single-threaded situation"):
/// single_thread_config() on that one workload, kDefaultWarmup, no cycle
/// cap and the config's own seed, whatever the campaign's warmup and seed.
/// Its column is "single-thread" and its mix is named after the benchmark.
/// run_campaign adds one per distinct (benchmark, insts) its cells weigh
/// by and journals it, but it reaches no sink, record list or tally.
/// single_thread_ipc (sim/experiment.hpp) is its IPC, read through the
/// cell memo.
JobSpec reference_job(const std::string& benchmark, u64 insts);

CampaignResult run_campaign(const CampaignSpec& spec, const EngineOptions& opts);

/// Empties the process-wide cell memo. For tests that compare two runs of
/// the same cell: without it the second run would be a copy of the first.
void clear_cell_memo();

}  // namespace tlrob::runner

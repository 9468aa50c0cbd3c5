// The campaign engine: expands a CampaignSpec, executes the jobs on a
// work-stealing pool, and streams JobRecords to the sinks in expansion
// order.
//
// Determinism contract: a campaign's records — and therefore every sink's
// bytes — are identical for any worker count, because (a) each job is a
// pure function of its JobSpec (the simulator is deterministic given a
// config and seed, and per-job seeds are fixed at expansion time), (b) the
// shared single-thread reference IPCs are memoised behind a once-per-key
// guard (sim/experiment.cpp) and are themselves pure, and (c) completions
// pass through an in-order emission window before reaching any sink.
//
// Cell memo: because a cell is a pure function of its content (cell_key),
// run_campaign simulates each distinct key once per process. A repeat — in
// the same campaign or any later one, such as a Baseline_32 column shared
// by several presets — is a copy of the first record, restamped with the
// repeat's job index, campaign, column and mix names. Failed cells and cells
// writing a sample series (sample_dir) are always simulated.
//
// Robustness contract: a job that throws, or whose simulation fails to
// reach its commit target within its cycle cap (the timeout mechanism — the
// simulator is single-stepped and cannot hang, it can only diverge), is
// recorded with status "failed" and the campaign continues. When a manifest
// path is set, every completed record is journalled with its cell_digest;
// resuming replays previously successful cells whose digest matches and
// executes only the rest.
#pragma once

#include <string>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/sinks.hpp"

namespace tlrob::runner {

struct EngineOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = run inline (serial
  /// reference mode, no pool).
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

/// Executes one cell. Exposed for tests and for callers that want a single
/// cell without engine machinery; run_campaign uses exactly this.
JobRecord execute_job(const JobSpec& spec);

CampaignResult run_campaign(const CampaignSpec& spec, const EngineOptions& opts);

/// Empties the process-wide cell memo. For tests that compare two runs of
/// the same cell: without it the second run would be a copy of the first.
void clear_cell_memo();

}  // namespace tlrob::runner

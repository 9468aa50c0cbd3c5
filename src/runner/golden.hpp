// The golden run length, and the per-cell fingerprint perfbench gates on.
// The golden fixture itself, tests/golden/records.jsonl, is the campaign's
// own JSONL records of every preset at golden_run_length() (EXPERIMENTS.md
// "Golden-run fixtures"); tests/test_golden_runs.cpp compares against it.
#pragma once

#include <string>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/record.hpp"

namespace tlrob::runner {

/// Architectural fingerprint of one (config, mix) cell of a preset.
struct GoldenRow {
  std::string config;
  std::string mix;
  std::string status;  // "ok" or "failed" (cycle-cap hit)
  u64 cycles = 0;
  std::vector<u64> committed;   // per thread, paper order
  std::vector<double> mt_ipc;   // per thread, derived from committed/cycles
  u64 l2_misses = 0;            // shared-L2 "l2.misses" counter
  u64 second_level_grants = 0;  // "rob.allocations" counter
};

/// The run length fixtures are recorded at. Deliberately short: long enough
/// that every scheme exercises its second-level machinery (grants are
/// nonzero on two-level configurations), short enough that the full sweep
/// of all presets stays within tier-1 test time.
RunLengthSpec golden_run_length();

/// Projects a completed cell onto its fingerprint fields.
GoldenRow golden_row(const JobRecord& record);

}  // namespace tlrob::runner

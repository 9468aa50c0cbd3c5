// Declarative sweep specification and its expansion into independent jobs.
//
// A campaign is a cross product: configurations (schemes × thresholds,
// expressed as named columns) × mixes × run lengths. Expansion order is
// fixed — run length (outer), mix, configuration (inner) — which is the
// order every sink receives records in and the row-major order the table
// renderer streams, regardless of how many workers execute the jobs.
#pragma once

#include <string>
#include <vector>

#include "runner/record.hpp"
#include "sim/presets.hpp"
#include "workload/mixes.hpp"

namespace tlrob::runner {

/// One configuration column of the sweep (one machine under test).
struct ConfigColumn {
  std::string name;
  MachineConfig config;
  /// Per-column cycle cap override; 0 defers to CampaignSpec::max_cycles.
  u64 max_cycles = 0;
};

/// One point on the run-length axis.
struct RunLengthSpec {
  u64 insts = 120000;
  u64 warmup = 60000;
};

struct CampaignSpec {
  std::string name;
  std::vector<ConfigColumn> columns;
  std::vector<Mix> mixes;
  std::vector<RunLengthSpec> lengths{RunLengthSpec{}};

  /// Base RNG seed. By default every job runs with exactly this seed (the
  /// historical bench behaviour); with per_job_seeds each cell gets a
  /// distinct seed derived deterministically from (base seed, cell index),
  /// so replication campaigns decorrelate without losing reproducibility.
  u64 seed = 12345;
  bool per_job_seeds = false;

  /// Campaign-wide cycle cap per job (the timeout mechanism: a cell whose
  /// simulation has not reached its commit target when the cap elapses is
  /// recorded as failed instead of aborting the sweep). 0 = the simulator's
  /// derived generous bound.
  u64 max_cycles = 0;

  /// Where sampling columns (a nonzero config.telemetry.sample_interval,
  /// which also adds the obs.* summary counters to each record) write each
  /// job's full series: <sample_dir>/samples_job<index>.jsonl. Empty = no
  /// files. The series is a pure function of the JobSpec, so the files are
  /// byte-identical for any --jobs N.
  std::string sample_dir;
};

/// splitmix64 — the standard 64-bit seed scrambler (Steele et al.),
/// used to derive per-job seeds.
u64 splitmix64(u64 x);

/// Expands the cross product into fully resolved jobs, in the canonical
/// order. Throws std::invalid_argument on an empty axis.
std::vector<JobSpec> expand(const CampaignSpec& spec);

}  // namespace tlrob::runner

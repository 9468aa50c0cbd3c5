// The campaign runner's unit of work and unit of result.
//
// A JobSpec is one (configuration, mix, run-length) cell of a sweep; a
// JobRecord is everything a completed cell produced, in a flat structure all
// sinks (JSON lines, CSV, rendered tables) serialise from. Records are the
// single source of truth: the printf tables the figure benches show are
// rendered from the same JobRecords the JSON/CSV sinks write, so parallel
// and serial campaigns are comparable byte-for-byte.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "runner/json.hpp"
#include "sim/presets.hpp"
#include "workload/mixes.hpp"

namespace tlrob::runner {

/// One (configuration, mix, run-length) cell of a campaign, fully resolved:
/// executing a JobSpec depends on nothing but its own fields and the
/// single-thread reference cells its record weighs by (runner::reference_job,
/// one per (benchmark, insts), JobSpecs themselves), which is what makes
/// cells order-independent.
struct JobSpec {
  u64 index = 0;  // position in campaign expansion order
  std::string campaign;
  std::string config_name;
  MachineConfig config;
  Mix mix;
  u64 insts = 0;
  u64 warmup = 0;
  u64 max_cycles = 0;  // 0 = the simulator's derived generous bound
  u64 seed = 0;        // applied to config.seed before the run

  /// Copied from CampaignSpec: when non-empty and the config samples
  /// (config.telemetry.sample_interval), the job writes its series to
  /// <sample_dir>/samples_job<index>.jsonl. Not part of cell_key.
  std::string sample_dir;
};

/// Named identity of a cell: campaign, column and mix names, run lengths
/// and seed. Excludes `index`, so a grown or reordered campaign keeps it.
std::string job_key(const JobSpec& spec);

/// Content identity of a cell: a canonical serialization of every
/// MachineConfig field (seed applied; the sampling period is the config's
/// own telemetry.sample_interval), the mix's workload tokens in order, insts,
/// warmup and max_cycles. A `trace:` token also keys on its file's content
/// hash, read through the trace resolver's cache (which pins one content per
/// token per process), so a rewritten trace file is a different cell. Names
/// (campaign, column, mix) are not part of it, so the same machine on the
/// same workload has one key in every preset. This is what the engine's
/// cell memo and manifest resume match on (DESIGN.md §7). Throws
/// std::runtime_error when a `trace:` file cannot be loaded.
std::string cell_key(const JobSpec& spec);

/// 16-hex-digit FNV-1a digest of a cell_key, journalled on manifest lines.
std::string cell_digest(const std::string& cell_key);

enum class JobStatus : u8 { kOk, kFailed };

const char* to_string(JobStatus s);

/// Dependents-of-a-long-latency-load histogram summary (Figures 1/3/7),
/// carried per record so the DoD figures render from sink records too.
struct DodSummary {
  u64 samples = 0;
  double sum = 0.0;  // of true (unclamped) values
  std::vector<u64> buckets;

  double mean() const { return samples == 0 ? 0.0 : sum / static_cast<double>(samples); }
};

struct JobRecord {
  u64 job = 0;
  std::string campaign;
  std::string config;
  std::string mix;
  std::string scheme;
  u32 threshold = 0;
  u64 insts = 0;
  u64 warmup = 0;
  u64 max_cycles = 0;
  u64 seed = 0;

  JobStatus status = JobStatus::kOk;
  std::string error;

  u64 cycles = 0;
  double ft = 0.0;
  double throughput = 0.0;
  std::vector<std::string> benchmarks;
  std::vector<u64> committed;
  std::vector<double> mt_ipc;
  std::vector<double> st_ipc;
  DodSummary dod_true;
  DodSummary dod_proxy;
  std::map<std::string, u64> counters;

  bool ok() const { return status == JobStatus::kOk; }
};

/// The record name of the configuration's scheme (rob_scheme_name).
std::string scheme_name(const MachineConfig& cfg);

/// One JSON object, single line, fixed key order and number formatting —
/// byte-identical regardless of which worker produced it.
std::string to_json_line(const JobRecord& r);

/// Inverse of to_json_line. Throws std::invalid_argument on malformed
/// input. Members the record does not have (a manifest line's "cell") are
/// ignored.
JobRecord record_from_json(const JsonValue& v);
JobRecord record_from_json_line(const std::string& line);

/// CSV header matching to_csv_line's columns.
std::string csv_header();

/// One CSV row; list-valued fields are ';'-joined, counters are omitted
/// (use the JSON sink for the full record).
std::string to_csv_line(const JobRecord& r);

}  // namespace tlrob::runner

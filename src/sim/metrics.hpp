// Performance metrics: IPC, weighted IPC and the paper's headline metric —
// fair throughput (FT), the harmonic mean of per-thread weighted IPCs
// (Luo et al., ISPASS 2001; called "fairness" there).
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/types.hpp"
#include "obs/interval_sampler.hpp"

namespace tlrob {

struct ThreadResult {
  std::string benchmark;
  u64 committed = 0;
  double ipc = 0.0;
};

/// Everything a single simulation produces that experiments consume.
struct RunResult {
  u64 cycles = 0;
  std::vector<ThreadResult> threads;

  /// Dependents of long-latency loads observed in the ROB at miss-service
  /// time (Figures 1 / 3 / 7): true transitive register dependents, and the
  /// paper's low-cost not-yet-executed proxy.
  Histogram dod_true{31};
  Histogram dod_proxy{31};

  /// Flat copy of the core's counters at end of run.
  std::map<std::string, u64> counters;

  /// Interval-telemetry time series (empty unless
  /// MachineConfig::telemetry.sample_interval was nonzero).
  obs::IntervalSeries samples;

  /// Closed stall-cycle taxonomy: per thread (machine-global order), cycles
  /// attributed to each obs::StallClass; each thread's classes sum to
  /// `cycles`. Empty when sampling is off — kept out of `counters` so a
  /// telemetry-on run's counter map stays identical to the telemetry-off
  /// run's (the runner flattens it via obs::stall_summary_counters).
  std::vector<std::array<u64, obs::kStallClassCount>> stall_cycles;

  double total_throughput() const;

  /// Empty when some thread committed `insts`. Otherwise the run hit its
  /// cycle cap first, and this is the error every front end reports.
  std::string cycle_cap_error(u64 insts) const;
};

/// Counter value from a run. Every component counter of the machine is
/// present (0 when the event never occurred), so an absent name is a typo
/// or a family this machine lacks: throws std::out_of_range naming it.
u64 run_counter(const RunResult& r, const std::string& name);

/// Weighted IPC of one thread: multithreaded IPC / single-threaded IPC.
double weighted_ipc(double mt_ipc, double st_ipc);

/// Fair throughput: harmonic mean of weighted IPCs. `mt` and `st` must have
/// equal, non-zero length.
double fair_throughput(const std::vector<double>& mt_ipc, const std::vector<double>& st_ipc);

}  // namespace tlrob

// Telemetry configuration (src/obs) — the observability counterpart of
// verify/audit_config.hpp's AuditConfig.
//
// Everything in src/obs is compiled in unconditionally and gated at runtime;
// the contract is that a config with everything off adds at most one
// predictable branch to the cycle loop (bench_sim_speed's perf-smoke job and
// the golden-run fixtures both pin this).
//
// Dependency note: this header is included by sim/presets.hpp (MachineConfig
// embeds a TelemetryConfig), so it must only depend on common/types.hpp.
#pragma once

#include "common/types.hpp"

namespace tlrob::obs {

struct TelemetryConfig {
  /// Interval-sampler period in cycles; 0 = sampler off. Every
  /// `sample_interval` cycles the core records per-thread ROB/IQ/LSQ
  /// occupancy, committed counts, the DoD proxy, outstanding L2 misses,
  /// DCRA issue-queue caps and second-level ownership into an in-memory
  /// time series (obs/interval_sampler.hpp).
  ///
  /// Sampling does NOT disable the idle-cycle fast-forward: sample points
  /// inside a fast-forwarded span are replayed from the quiescent state,
  /// exactly like the per-cycle stall counters, and tests pin that the
  /// series is bit-identical either way (see DESIGN.md §9).
  Cycle sample_interval = 0;
};

}  // namespace tlrob::obs

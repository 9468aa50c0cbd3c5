// Workload-name resolution: one vocabulary for every benchmark backend.
//
// A workload name is either a synthetic SPEC profile ("art", "mcf", ...), a
// trace file ("trace:<path>", gzip sniffed), or an in-memory synthesized
// trace ("tracegen:<profile>@<records>[@<seed>]" — the tlrob_mktrace
// pipeline without the file). Trace workloads are expensive to load (one
// full lowering pass), so resolution memoises them process-wide; the
// returned Benchmark's name round-trips through resolve_benchmark(), which
// is what lets the single-thread-reference memo replay a trace workload
// from nothing but the name a JobRecord carries.
//
// Workload lists are core-major on a CMP: entries [c*M, (c+1)*M) of an
// N-core x M-thread machine's list become core c's threads 0..M-1.
#pragma once

#include <string>
#include <vector>

#include "workload/mixes.hpp"
#include "workload/thread_context.hpp"

namespace tlrob::trace {

/// True for "trace:..." and "tracegen:..." names (no validation beyond the
/// prefix).
bool is_trace_workload_name(const std::string& name);

/// Resolves any workload name to a runnable Benchmark. Trace workloads are
/// loaded (and cached) on first use. Throws std::invalid_argument listing
/// the available backends for an unknown name, std::runtime_error for a
/// trace that fails to load or parse.
Benchmark resolve_benchmark(const std::string& name);

/// Resolves every name in a mix. Mixes may combine backends freely.
std::vector<Benchmark> resolve_mix_benchmarks(const Mix& mix);

/// Parses a --workload value into a Mix: "mix:<n>" names a Table 2 mix,
/// anything else is a comma-separated per-thread workload list (thread i
/// runs entry i). Validates names/syntax eagerly so a typo fails the
/// campaign up front; trace *contents* are only read at job execution, so a
/// bad file becomes a structured per-job failure. Throws
/// std::invalid_argument with the backend list on bad input.
Mix workload_mix(const std::string& spec);

/// The workload-to-cores rule every front end shares: `mix` is core-major
/// over `cores` cores (see above), so each core runs mix.size() / cores
/// hardware threads. Returns that per-core count. Throws
/// std::invalid_argument for an empty list, cores = 0, or a list length the
/// core count does not divide.
u32 threads_per_core(const Mix& mix, u32 cores);

/// Human-readable summary of every accepted workload form (error messages,
/// --help).
std::string workload_backends_help();

}  // namespace tlrob::trace

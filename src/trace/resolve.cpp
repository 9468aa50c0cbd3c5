#include "trace/resolve.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/config.hpp"
#include "common/sync.hpp"
#include "trace/source.hpp"
#include "trace/synth.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob::trace {

namespace {

constexpr const char* kTracePrefix = "trace:";
constexpr const char* kTraceGenPrefix = "tracegen:";

bool has_prefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

struct TraceGenSpec {
  std::string profile;
  u64 records = 0;
  u64 seed = 1;
};

/// "tracegen:<profile>@<records>[@<seed>]". Validation is eager — these
/// names appear in CLI input and campaign specs, where a typo should fail
/// before any job runs.
TraceGenSpec parse_tracegen(const std::string& name) {
  const std::string body = name.substr(std::string(kTraceGenPrefix).size());
  const auto at1 = body.find('@');
  if (at1 == std::string::npos)
    throw std::invalid_argument("malformed workload '" + name +
                                "': expected tracegen:<profile>@<records>[@<seed>]");
  TraceGenSpec spec;
  spec.profile = body.substr(0, at1);
  if (!is_spec_benchmark(spec.profile))
    throw std::invalid_argument("unknown profile '" + spec.profile + "' in workload '" + name +
                                "'\n" + workload_backends_help());
  std::string rest = body.substr(at1 + 1);
  const auto at2 = rest.find('@');
  std::string records_str = rest.substr(0, at2);
  const std::string what = "malformed workload '" + name + "'";
  spec.records = parse_u64(records_str, what + ", record count");
  if (at2 != std::string::npos) spec.seed = parse_u64(rest.substr(at2 + 1), what + ", seed");
  if (spec.records == 0)
    throw std::invalid_argument("malformed workload '" + name + "': record count must be > 0");
  return spec;
}

/// Memo slot for one loaded trace workload: the once_flag serialises the
/// (expensive) load-and-lower pass, the pointer is written exactly once
/// under it. A load that throws leaves the once_flag unset, so a later
/// retry (or another job's attempt) sees the error again instead of a null
/// workload.
struct WorkloadEntry {
  std::once_flag once;
  std::shared_ptr<const TraceWorkload> workload;
};

Mutex workload_mu;
std::map<std::string, std::unique_ptr<WorkloadEntry>> workload_cache
    TLROB_GUARDED_BY(workload_mu);

std::shared_ptr<const TraceWorkload> trace_workload(const std::string& name) {
  WorkloadEntry* entry;
  {
    MutexLock lock(workload_mu);
    auto& slot = workload_cache[name];
    if (!slot) slot = std::make_unique<WorkloadEntry>();
    entry = slot.get();
  }
  std::call_once(entry->once, [&] {
    if (has_prefix(name, kTraceGenPrefix)) {
      const TraceGenSpec spec = parse_tracegen(name);
      entry->workload =
          TraceWorkload::from_records(name, synthesize_records(spec.profile, spec.records,
                                                               spec.seed));
    } else {
      // Strip the "trace:" prefix to get the path; from_file() restores it
      // as the workload name so Benchmark names round-trip through here.
      entry->workload = TraceWorkload::from_file(name.substr(std::string(kTracePrefix).size()));
    }
  });
  return entry->workload;
}

}  // namespace

bool is_trace_workload_name(const std::string& name) {
  return has_prefix(name, kTracePrefix) || has_prefix(name, kTraceGenPrefix);
}

Benchmark resolve_benchmark(const std::string& name) {
  if (is_trace_workload_name(name)) return trace_benchmark(trace_workload(name));
  if (is_spec_benchmark(name)) return spec_benchmark(name);
  throw std::invalid_argument("unknown workload '" + name + "'\n" + workload_backends_help());
}

std::optional<u64> trace_file_hash(const std::string& name) {
  if (!has_prefix(name, kTracePrefix)) return std::nullopt;
  return trace_workload(name)->lowering().content_hash;
}

std::vector<Benchmark> resolve_mix_benchmarks(const Mix& mix) {
  std::vector<Benchmark> v;
  v.reserve(mix.benchmarks.size());
  for (const auto& name : mix.benchmarks) v.push_back(resolve_benchmark(name));
  return v;
}

Mix workload_mix(const std::string& spec) {
  if (spec.empty())
    throw std::invalid_argument("empty workload specification\n" + workload_backends_help());
  if (has_prefix(spec, "mix:")) {
    return table2_mix(parse_u32(spec.substr(4), "malformed workload '" + spec + "'"));
  }

  Mix mix;
  mix.name = spec;
  mix.classification = "custom";
  std::size_t start = 0;
  while (start <= spec.size()) {
    const auto comma = spec.find(',', start);
    const std::string name =
        spec.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (name.empty())
      throw std::invalid_argument("empty workload entry in '" + spec + "'\n" +
                                  workload_backends_help());
    if (is_trace_workload_name(name)) {
      if (has_prefix(name, kTraceGenPrefix)) (void)parse_tracegen(name);  // syntax check
      if (has_prefix(name, kTracePrefix) && name.size() == std::string(kTracePrefix).size())
        throw std::invalid_argument("workload 'trace:' is missing a file path\n" +
                                    workload_backends_help());
    } else if (!is_spec_benchmark(name)) {
      throw std::invalid_argument("unknown workload '" + name + "'\n" +
                                  workload_backends_help());
    }
    mix.benchmarks.push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return mix;
}

u32 threads_per_core(const Mix& mix, u32 cores) {
  const std::size_t n = mix.benchmarks.size();
  if (n == 0) throw std::invalid_argument("empty workload list");
  if (cores == 0) throw std::invalid_argument("cores=0: a machine needs at least one core");
  if (n % cores != 0)
    throw std::invalid_argument("workload size " + std::to_string(n) +
                                " not divisible by cores=" + std::to_string(cores));
  return static_cast<u32>(n / cores);
}

std::string workload_backends_help() {
  std::string out = "available workload backends:\n";
  out += "  synthetic profiles: ";
  bool first = true;
  for (const auto& b : spec_benchmarks()) {
    if (!first) out += ", ";
    out += b.name;
    first = false;
  }
  out += "\n  mix:<1..11>                         one of the paper's Table 2 mixes\n";
  out += "  trace:<file>                        ChampSim trace replay (.gz or raw)\n";
  out += "  tracegen:<profile>@<records>[@<seed>]  in-memory synthesized trace\n";
  out += "combine per-thread entries with commas, e.g. "
         "workload=trace:a.gz,tracegen:art@4000";
  return out;
}

}  // namespace tlrob::trace

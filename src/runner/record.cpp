#include "runner/record.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "sim/config_override.hpp"
#include "trace/resolve.hpp"

namespace tlrob::runner {

namespace {

// -- cell content key -------------------------------------------------------

/// Appends "name=value;" — integers, bools and enums as decimal integers,
/// doubles in their round-trippable JSON form.
template <typename T>
void add(std::string& out, std::string_view name, T v) {
  out += name;
  out += '=';
  if constexpr (std::is_floating_point_v<T>)
    out += json_double(v);
  else
    out += std::to_string(static_cast<u64>(v));
  out += ';';
}

template <typename T, typename Fn>
std::string json_array(const std::vector<T>& v, Fn to_text) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += to_text(v[i]);
  }
  return out + "]";
}

std::string dod_json(const DodSummary& d) {
  std::string out = "{\"n\":" + json_u64(d.samples) + ",\"sum\":" + json_double(d.sum) +
                    ",\"buckets\":" + json_array(d.buckets, json_u64) + "}";
  return out;
}

DodSummary dod_from_json(const JsonValue& v) {
  DodSummary d;
  d.samples = v.at("n").as_u64();
  d.sum = v.at("sum").as_double();
  for (const auto& b : v.at("buckets").items) d.buckets.push_back(b.as_u64());
  return d;
}

}  // namespace

std::string job_key(const JobSpec& spec) {
  std::ostringstream os;
  os << spec.campaign << '|' << spec.config_name << '|' << spec.mix.name << '|' << spec.insts
     << '|' << spec.warmup << '|' << spec.max_cycles << '|' << spec.seed;
  return os.str();
}

std::string cell_key(const JobSpec& spec) {
  // The machine exactly as execute_job builds it.
  MachineConfig cfg = spec.config;
  cfg.seed = spec.seed;

  std::string out = "config{";
  for_each_knob(cfg, [&](const Knob& k, const auto& value) { add(out, k.name, value); });
  out += "}mix{";
  // Length-prefixed, so no token content can imitate a separator.
  for (const std::string& token : spec.mix.benchmarks) {
    out += std::to_string(token.size());
    out += ':';
    out += token;
    if (const auto hash = trace::trace_file_hash(token)) add(out, "content_hash", *hash);
  }
  out += '}';
  add(out, "insts", spec.insts);
  add(out, "warmup", spec.warmup);
  add(out, "max_cycles", spec.max_cycles);
  return out;
}

std::string cell_digest(const std::string& cell_key) {
  u64 h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const char c : cell_key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;  // FNV-1a prime
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

const char* to_string(JobStatus s) { return s == JobStatus::kOk ? "ok" : "failed"; }

std::string scheme_name(const MachineConfig& cfg) { return rob_scheme_name(cfg.rob.scheme); }

std::string to_json_line(const JobRecord& r) {
  std::ostringstream os;
  os << "{\"job\":" << json_u64(r.job)                                    //
     << ",\"campaign\":" << json_escape(r.campaign)                       //
     << ",\"config\":" << json_escape(r.config)                           //
     << ",\"mix\":" << json_escape(r.mix)                                 //
     << ",\"scheme\":" << json_escape(r.scheme)                           //
     << ",\"threshold\":" << json_u64(r.threshold)                        //
     << ",\"insts\":" << json_u64(r.insts)                                //
     << ",\"warmup\":" << json_u64(r.warmup)                              //
     << ",\"max_cycles\":" << json_u64(r.max_cycles)                      //
     << ",\"seed\":" << json_u64(r.seed)                                  //
     << ",\"status\":" << json_escape(to_string(r.status))                //
     << ",\"error\":" << json_escape(r.error)                             //
     << ",\"cycles\":" << json_u64(r.cycles)                              //
     << ",\"ft\":" << json_double(r.ft)                                   //
     << ",\"throughput\":" << json_double(r.throughput)                   //
     << ",\"benchmarks\":" << json_array(r.benchmarks, json_escape)       //
     << ",\"committed\":" << json_array(r.committed, json_u64)            //
     << ",\"mt_ipc\":" << json_array(r.mt_ipc, json_double)               //
     << ",\"st_ipc\":" << json_array(r.st_ipc, json_double)               //
     << ",\"dod_true\":" << dod_json(r.dod_true)                          //
     << ",\"dod_proxy\":" << dod_json(r.dod_proxy)                        //
     << ",\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : r.counters) {
    if (!first) os << ",";
    first = false;
    os << json_escape(k) << ":" << json_u64(v);
  }
  os << "}}";
  return os.str();
}

JobRecord record_from_json(const JsonValue& v) {
  if (!v.is_object()) throw std::invalid_argument("record line is not a JSON object");
  JobRecord r;
  r.job = v.at("job").as_u64();
  r.campaign = v.at("campaign").as_string();
  r.config = v.at("config").as_string();
  r.mix = v.at("mix").as_string();
  r.scheme = v.at("scheme").as_string();
  r.threshold = static_cast<u32>(v.at("threshold").as_u64());
  r.insts = v.at("insts").as_u64();
  r.warmup = v.at("warmup").as_u64();
  r.max_cycles = v.at("max_cycles").as_u64();
  r.seed = v.at("seed").as_u64();
  r.status = v.at("status").as_string() == "ok" ? JobStatus::kOk : JobStatus::kFailed;
  r.error = v.at("error").as_string();
  r.cycles = v.at("cycles").as_u64();
  r.ft = v.at("ft").as_double();
  r.throughput = v.at("throughput").as_double();
  for (const auto& b : v.at("benchmarks").items) r.benchmarks.push_back(b.as_string());
  for (const auto& c : v.at("committed").items) r.committed.push_back(c.as_u64());
  for (const auto& x : v.at("mt_ipc").items) r.mt_ipc.push_back(x.as_double());
  for (const auto& x : v.at("st_ipc").items) r.st_ipc.push_back(x.as_double());
  r.dod_true = dod_from_json(v.at("dod_true"));
  r.dod_proxy = dod_from_json(v.at("dod_proxy"));
  for (const auto& [k, c] : v.at("counters").members) r.counters[k] = c.as_u64();
  return r;
}

JobRecord record_from_json_line(const std::string& line) {
  return record_from_json(parse_json(line));
}

}  // namespace tlrob::runner

#include "runner/record.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "trace/resolve.hpp"

namespace tlrob::runner {

namespace {

// -- cell content key -------------------------------------------------------

// Adding a field to any of these structs changes its size and fails the
// build here until add_config() serialises the field too (sizes are for
// the LP64 ABI of every supported toolchain). A field that fits in
// existing padding slips past; the key-completeness test in
// test_runner.cpp covers every apply_overrides knob.
static_assert(sizeof(CacheGeometry) == 24);
static_assert(sizeof(MemoryChannelConfig) == 40);
static_assert(sizeof(MemoryConfig) == 112);
static_assert(sizeof(LlcConfig) == 40);
static_assert(sizeof(DramConfig) == 72);
static_assert(sizeof(DcraConfig) == 8);
static_assert(sizeof(RobPolicyConfig) == 72);
static_assert(sizeof(PredictorConfig) == 16);
static_assert(sizeof(AuditConfig) == 32);
static_assert(sizeof(obs::TelemetryConfig) == 8);
static_assert(sizeof(MachineConfig) == 448);

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

void add_cache(std::string& out, const std::string& p, const CacheGeometry& g) {
  add(out, p + ".size_bytes", g.size_bytes);
  add(out, p + ".ways", g.ways);
  add(out, p + ".line_bytes", g.line_bytes);
  add(out, p + ".hit_latency", g.hit_latency);
}

void add_config(std::string& out, const MachineConfig& c) {
  add(out, "num_cores", c.num_cores);
  add(out, "num_threads", c.num_threads);
  add(out, "addr_space_id_base", c.addr_space_id_base);
  add(out, "fetch_width", c.fetch_width);
  add(out, "fetch_threads", c.fetch_threads);
  add(out, "dispatch_width", c.dispatch_width);
  add(out, "issue_width", c.issue_width);
  add(out, "commit_width", c.commit_width);
  add(out, "decode_depth", c.decode_depth);
  add(out, "frontend_buffer", c.frontend_buffer);
  add(out, "rob_first_level", c.rob_first_level);
  add(out, "rob_second_level", c.rob_second_level);
  add(out, "second_level_reg_reserve", c.second_level_reg_reserve);
  add(out, "iq_entries", c.iq_entries);
  add(out, "lsq_entries", c.lsq_entries);
  add(out, "int_regs", c.int_regs);
  add(out, "fp_regs", c.fp_regs);
  add(out, "shared_regfile", c.shared_regfile);
  add(out, "early_register_release", c.early_register_release);
  add(out, "fetch_policy", c.fetch_policy);
  add(out, "dcra.sharing", c.dcra.sharing);

  add(out, "rob.scheme", c.rob.scheme);
  add(out, "rob.dod_threshold", c.rob.dod_threshold);
  add(out, "rob.recheck_interval", c.rob.recheck_interval);
  add(out, "rob.cdr_delay", c.rob.cdr_delay);
  add(out, "rob.predictor_entries", c.rob.predictor_entries);
  add(out, "rob.lease_limit", c.rob.lease_limit);
  add(out, "rob.lease_cooldown", c.rob.lease_cooldown);
  add(out, "rob.adaptive_interval", c.rob.adaptive_interval);
  add(out, "rob.adaptive_step", c.rob.adaptive_step);
  add(out, "rob.adaptive_max_extra", c.rob.adaptive_max_extra);
  add(out, "rob.adaptive_issue_bound_threshold", c.rob.adaptive_issue_bound_threshold);

  add_cache(out, "memory.l1i", c.memory.l1i);
  add_cache(out, "memory.l1d", c.memory.l1d);
  add_cache(out, "memory.l2", c.memory.l2);
  const MemoryChannelConfig& ch = c.memory.channel;
  add(out, "memory.channel.bus_bytes", ch.bus_bytes);
  add(out, "memory.channel.first_chunk", ch.first_chunk);
  add(out, "memory.channel.interchunk", ch.interchunk);
  add(out, "memory.channel.line_bytes", ch.line_bytes);
  add(out, "memory.channel.critical_bytes", ch.critical_bytes);
  add(out, "memory.channel.mshr_entries", ch.mshr_entries);

  add(out, "llc.enabled", c.llc.enabled);
  add_cache(out, "llc.geo", c.llc.geo);
  add(out, "llc.mshr_entries", c.llc.mshr_entries);

  add(out, "dram.channels", c.dram.channels);
  add(out, "dram.banks_per_channel", c.dram.banks_per_channel);
  add(out, "dram.row_bytes", c.dram.row_bytes);
  add(out, "dram.tcas", c.dram.tcas);
  add(out, "dram.trcd", c.dram.trcd);
  add(out, "dram.trp", c.dram.trp);
  add(out, "dram.bus_bytes", c.dram.bus_bytes);
  add(out, "dram.interchunk", c.dram.interchunk);
  add(out, "dram.line_bytes", c.dram.line_bytes);
  add(out, "dram.critical_bytes", c.dram.critical_bytes);
  add(out, "dram.open_page", c.dram.open_page);

  add(out, "predictor.gshare_entries", c.predictor.gshare_entries);
  add(out, "predictor.history_bits", c.predictor.history_bits);
  add(out, "predictor.btb_entries", c.predictor.btb_entries);
  add(out, "predictor.btb_ways", c.predictor.btb_ways);
  add(out, "load_hit_entries", c.load_hit_entries);
  add(out, "load_hit_history", c.load_hit_history);

  add(out, "audit.level", c.audit.level);
  add(out, "audit.cheap_interval", c.audit.cheap_interval);
  add(out, "audit.full_interval", c.audit.full_interval);
  add(out, "audit.abort_on_violation", c.audit.abort_on_violation);
  add(out, "audit.max_recorded", c.audit.max_recorded);

  add(out, "telemetry.sample_interval", c.telemetry.sample_interval);
  add(out, "seed", c.seed);
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

template <typename T, typename Fn>
std::string joined(const std::vector<T>& v, Fn to_text) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ";";
    out += to_text(v[i]);
  }
  return out;
}

/// CSV field quoting, only applied when the content requires it.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  return out + "\"";
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
  add_config(out, cfg);
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

std::string scheme_name(const MachineConfig& cfg) {
  switch (cfg.rob.scheme) {
    case RobScheme::kBaseline: return "baseline";
    case RobScheme::kReactive: return "rrob";
    case RobScheme::kRelaxedReactive: return "relaxed";
    case RobScheme::kCdr: return "cdr";
    case RobScheme::kPredictive: return "prob";
    case RobScheme::kAdaptive: return "adaptive";
  }
  return "?";
}

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

std::string csv_header() {
  return "job,campaign,config,mix,scheme,threshold,insts,warmup,max_cycles,seed,status,"
         "error,cycles,ft,throughput,benchmarks,committed,mt_ipc,st_ipc,dod_true_mean,"
         "dod_proxy_mean";
}

std::string to_csv_line(const JobRecord& r) {
  std::ostringstream os;
  os << r.job << ',' << csv_field(r.campaign) << ',' << csv_field(r.config) << ','
     << csv_field(r.mix) << ',' << r.scheme << ',' << r.threshold << ',' << r.insts << ','
     << r.warmup << ',' << r.max_cycles << ',' << r.seed << ',' << to_string(r.status)
     << ',' << csv_field(r.error) << ',' << r.cycles << ',' << json_double(r.ft) << ','
     << json_double(r.throughput) << ','
     << csv_field(joined(r.benchmarks, [](const std::string& s) { return s; })) << ','
     << joined(r.committed, json_u64) << ',' << joined(r.mt_ipc, json_double) << ','
     << joined(r.st_ipc, json_double) << ',' << json_double(r.dod_true.mean()) << ','
     << json_double(r.dod_proxy.mean());
  return os.str();
}

}  // namespace tlrob::runner

#include "sim/config_override.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace tlrob {

RobScheme parse_scheme(const std::string& name) {
  if (name == "baseline") return RobScheme::kBaseline;
  if (name == "rrob" || name == "reactive") return RobScheme::kReactive;
  if (name == "relaxed") return RobScheme::kRelaxedReactive;
  if (name == "cdr") return RobScheme::kCdr;
  if (name == "prob" || name == "predictive") return RobScheme::kPredictive;
  if (name == "adaptive") return RobScheme::kAdaptive;
  throw std::invalid_argument("unknown ROB scheme: " + name +
                              " (expected baseline|rrob|relaxed|cdr|prob|adaptive)");
}

FetchPolicyKind parse_fetch_policy(const std::string& name) {
  if (name == "dcra") return FetchPolicyKind::kDcra;
  if (name == "icount") return FetchPolicyKind::kIcount;
  if (name == "stall") return FetchPolicyKind::kStall;
  if (name == "flush") return FetchPolicyKind::kFlush;
  if (name == "rr" || name == "round_robin") return FetchPolicyKind::kRoundRobin;
  throw std::invalid_argument("unknown fetch policy: " + name +
                              " (expected dcra|icount|stall|flush|rr)");
}

namespace {

/// Splits a ":"-separated spec into up to `max_fields` u64s (missing fields
/// keep their defaults; extra fields are an error).
std::vector<u64> parse_spec_fields(const std::string& spec, size_t max_fields,
                                   const char* what) {
  std::vector<u64> fields;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t colon = spec.find(':', pos);
    const std::string field =
        colon == std::string::npos ? spec.substr(pos) : spec.substr(pos, colon - pos);
    fields.push_back(parse_u64(field, std::string(what) + " spec \"" + spec + "\""));
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  if (fields.size() > max_fields)
    throw std::invalid_argument(std::string(what) + " spec: too many fields in \"" + spec + "\"");
  return fields;
}

}  // namespace

void apply_llc_spec(LlcConfig& llc, const std::string& spec) {
  const std::vector<u64> f = parse_spec_fields(spec, 4, "llc");
  llc.enabled = true;
  if (f.size() > 0) llc.geo.size_bytes = f[0] << 10;
  if (f.size() > 1) llc.geo.ways = static_cast<u32>(f[1]);
  if (f.size() > 2) llc.geo.hit_latency = static_cast<u32>(f[2]);
  if (f.size() > 3) llc.mshr_entries = static_cast<u32>(f[3]);
}

void apply_dram_spec(DramConfig& dram, const std::string& spec) {
  const std::vector<u64> f = parse_spec_fields(spec, 5, "dram");
  if (f.size() > 0) dram.channels = static_cast<u32>(f[0]);
  if (f.size() > 1) dram.banks_per_channel = static_cast<u32>(f[1]);
  if (f.size() > 2) dram.tcas = f[2];
  if (f.size() > 3) dram.trcd = f[3];
  if (f.size() > 4) dram.trp = f[4];
}

MachineConfig apply_overrides(MachineConfig cfg, const Options& opts) {
  auto u32opt = [&](const char* key, u32& field) {
    field = static_cast<u32>(opts.get_u64(key, field));
  };
  u32opt("threads", cfg.num_threads);
  u32opt("fetch_width", cfg.fetch_width);
  u32opt("fetch_threads", cfg.fetch_threads);
  u32opt("dispatch_width", cfg.dispatch_width);
  u32opt("issue_width", cfg.issue_width);
  u32opt("commit_width", cfg.commit_width);
  u32opt("decode_depth", cfg.decode_depth);
  u32opt("frontend_buffer", cfg.frontend_buffer);
  u32opt("rob1", cfg.rob_first_level);
  u32opt("rob2", cfg.rob_second_level);
  u32opt("iq", cfg.iq_entries);
  u32opt("lsq", cfg.lsq_entries);
  u32opt("int_regs", cfg.int_regs);
  u32opt("fp_regs", cfg.fp_regs);
  u32opt("reg_reserve", cfg.second_level_reg_reserve);
  cfg.shared_regfile = opts.get_bool("shared_regfile", cfg.shared_regfile);

  if (opts.has("policy")) cfg.fetch_policy = parse_fetch_policy(opts.get("policy"));
  if (opts.has("scheme")) cfg.rob.scheme = parse_scheme(opts.get("scheme"));
  u32opt("threshold", cfg.rob.dod_threshold);
  cfg.rob.recheck_interval = opts.get_u64("recheck", cfg.rob.recheck_interval);
  cfg.rob.cdr_delay = opts.get_u64("cdr_delay", cfg.rob.cdr_delay);
  cfg.rob.lease_limit = opts.get_u64("lease", cfg.rob.lease_limit);
  cfg.rob.lease_cooldown = opts.get_u64("cooldown", cfg.rob.lease_cooldown);
  u32opt("predictor_entries", cfg.rob.predictor_entries);

  if (opts.has("l2_kb")) cfg.memory.l2.size_bytes = opts.get_u64("l2_kb", 0) << 10;
  u32opt("l2_ways", cfg.memory.l2.ways);
  if (opts.has("l1d_kb")) cfg.memory.l1d.size_bytes = opts.get_u64("l1d_kb", 0) << 10;
  if (opts.has("l1i_kb")) cfg.memory.l1i.size_bytes = opts.get_u64("l1i_kb", 0) << 10;
  cfg.memory.channel.first_chunk = opts.get_u64("mem_lat", cfg.memory.channel.first_chunk);
  cfg.memory.channel.interchunk = opts.get_u64("interchunk", cfg.memory.channel.interchunk);
  u32opt("critical_bytes", cfg.memory.channel.critical_bytes);
  u32opt("mshr", cfg.memory.channel.mshr_entries);
  cfg.dcra.sharing = opts.get_double("dcra_sharing", cfg.dcra.sharing);
  cfg.seed = opts.get_u64("seed", cfg.seed);

  // CMP topology and the shared memory backend. cores > 1 without an
  // explicit llc spec still gets the shared backend (default LLC geometry);
  // an llc spec alone builds a 1-core machine with an LLC.
  u32opt("cores", cfg.num_cores);
  if (opts.has("llc")) apply_llc_spec(cfg.llc, opts.get("llc"));
  if (opts.has("dram")) apply_dram_spec(cfg.dram, opts.get("dram"));

  if (opts.has("audit")) cfg.audit.level = parse_audit_level(opts.get("audit"));
  cfg.audit.cheap_interval = opts.get_u64("audit_cheap_interval", cfg.audit.cheap_interval);
  cfg.audit.full_interval = opts.get_u64("audit_full_interval", cfg.audit.full_interval);
  cfg.audit.abort_on_violation = opts.get_bool("audit_abort", cfg.audit.abort_on_violation);
  return cfg;
}

}  // namespace tlrob

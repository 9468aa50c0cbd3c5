// The MachineConfig knob table: for_each_knob names every field once, and
// the CLI parser (apply_overrides), the campaign cell key (runner::cell_key),
// the validity check (MachineConfig::validate) and the printed machine
// (describe) all read it.
//
// The contract: every field is a row, and every row is live or inert by
// design. A live row changes a run's cycles, commits or some counter outside
// audit.* on a base machine; an inert one (audit.*, the telemetry sampling
// period) changes none of them. The KnobLiveness test holds each row to one
// of the two, so a setting that nothing reads fails it.
#pragma once

#include <concepts>
#include <string>
#include <type_traits>

#include "common/config.hpp"
#include "sim/presets.hpp"

namespace tlrob {

enum KnobFlag : u8 {
  kNonzero = 1,  // MachineConfig::validate rejects 0
  kKiB = 2,      // an override value is in KiB, the field in bytes
};

/// One MachineConfig field: `name` is its path, which the cell key writes
/// and validate() reports; `cli` is its override key, if it has one.
struct Knob {
  const char* name;
  const char* cli = nullptr;
  u8 flags = 0;
};

// A new field changes its struct's size (LP64) and fails the build here
// until for_each_knob names it too. One that fits in padding slips past;
// RunnerMemo.KeyCoversEveryOverrideKnob covers every CLI key.
static_assert(sizeof(CacheGeometry) == 16);
static_assert(sizeof(MemoryChannelConfig) == 32);
static_assert(sizeof(MemoryConfig) == 88);
static_assert(sizeof(LlcConfig) == 32);
static_assert(sizeof(DramConfig) == 64);
static_assert(sizeof(RobPolicyConfig) == 72);
static_assert(sizeof(PredictorConfig) == 16);
static_assert(sizeof(AuditConfig) == 32);
static_assert(sizeof(obs::TelemetryConfig) == 8);
static_assert(sizeof(MachineConfig) == 400);

/// Calls f(knob, field) for every MachineConfig field, in cell-key order.
/// `Config` is MachineConfig or const MachineConfig. `llc.*` and `dram.*`
/// have no CLI key of their own: the llc= and dram= specs set them.
template <typename Config, typename F>
  requires std::same_as<std::remove_const_t<Config>, MachineConfig>
void for_each_knob(Config& c, F&& f) {
  f(Knob{"num_cores", "cores", kNonzero}, c.num_cores);
  f(Knob{"num_threads", "threads", kNonzero}, c.num_threads);
  f(Knob{"fetch_width", "fetch_width", kNonzero}, c.fetch_width);
  f(Knob{"fetch_threads", "fetch_threads", kNonzero}, c.fetch_threads);
  f(Knob{"dispatch_width", "dispatch_width", kNonzero}, c.dispatch_width);
  f(Knob{"issue_width", "issue_width", kNonzero}, c.issue_width);
  f(Knob{"commit_width", "commit_width", kNonzero}, c.commit_width);
  f(Knob{"decode_depth", "decode_depth"}, c.decode_depth);
  f(Knob{"frontend_buffer", "frontend_buffer", kNonzero}, c.frontend_buffer);
  f(Knob{"rob_first_level", "rob1", kNonzero}, c.rob_first_level);
  f(Knob{"rob_second_level", "rob2"}, c.rob_second_level);
  f(Knob{"second_level_reg_reserve", "reg_reserve"}, c.second_level_reg_reserve);
  f(Knob{"iq_entries", "iq", kNonzero}, c.iq_entries);
  f(Knob{"lsq_entries", "lsq", kNonzero}, c.lsq_entries);
  f(Knob{"int_regs", "int_regs"}, c.int_regs);
  f(Knob{"fp_regs", "fp_regs"}, c.fp_regs);
  f(Knob{"shared_regfile", "shared_regfile"}, c.shared_regfile);
  f(Knob{"early_register_release"}, c.early_register_release);
  f(Knob{"fetch_policy", "policy"}, c.fetch_policy);

  f(Knob{"rob.scheme", "scheme"}, c.rob.scheme);
  f(Knob{"rob.dod_threshold", "threshold"}, c.rob.dod_threshold);
  f(Knob{"rob.recheck_interval", "recheck", kNonzero}, c.rob.recheck_interval);
  f(Knob{"rob.cdr_delay", "cdr_delay"}, c.rob.cdr_delay);
  f(Knob{"rob.predictor_entries", "predictor_entries"}, c.rob.predictor_entries);
  f(Knob{"rob.lease_limit", "lease"}, c.rob.lease_limit);
  f(Knob{"rob.lease_cooldown", "cooldown"}, c.rob.lease_cooldown);
  f(Knob{"rob.adaptive_interval"}, c.rob.adaptive_interval);
  f(Knob{"rob.adaptive_step"}, c.rob.adaptive_step);
  f(Knob{"rob.adaptive_max_extra"}, c.rob.adaptive_max_extra);
  f(Knob{"rob.adaptive_issue_bound_threshold"}, c.rob.adaptive_issue_bound_threshold);

  f(Knob{"memory.l1i.size_bytes", "l1i_kb", kKiB}, c.memory.l1i.size_bytes);
  f(Knob{"memory.l1i.ways"}, c.memory.l1i.ways);
  f(Knob{"memory.l1i.line_bytes"}, c.memory.l1i.line_bytes);
  f(Knob{"memory.l1d.size_bytes", "l1d_kb", kKiB}, c.memory.l1d.size_bytes);
  f(Knob{"memory.l1d.ways"}, c.memory.l1d.ways);
  f(Knob{"memory.l1d.line_bytes"}, c.memory.l1d.line_bytes);
  f(Knob{"memory.l2.size_bytes", "l2_kb", kKiB}, c.memory.l2.size_bytes);
  f(Knob{"memory.l2.ways", "l2_ways"}, c.memory.l2.ways);
  f(Knob{"memory.l2.line_bytes"}, c.memory.l2.line_bytes);
  f(Knob{"memory.l1d_hit_latency"}, c.memory.l1d_hit_latency);
  f(Knob{"memory.l2_hit_latency"}, c.memory.l2_hit_latency);
  f(Knob{"memory.channel.bus_bytes"}, c.memory.channel.bus_bytes);
  f(Knob{"memory.channel.first_chunk", "mem_lat"}, c.memory.channel.first_chunk);
  f(Knob{"memory.channel.interchunk", "interchunk"}, c.memory.channel.interchunk);
  f(Knob{"memory.channel.critical_bytes", "critical_bytes"}, c.memory.channel.critical_bytes);
  f(Knob{"memory.channel.mshr_entries", "mshr", kNonzero}, c.memory.channel.mshr_entries);

  f(Knob{"llc.enabled"}, c.llc.enabled);
  f(Knob{"llc.geo.size_bytes", nullptr, kKiB}, c.llc.geo.size_bytes);
  f(Knob{"llc.geo.ways"}, c.llc.geo.ways);
  f(Knob{"llc.geo.line_bytes"}, c.llc.geo.line_bytes);
  f(Knob{"llc.hit_latency"}, c.llc.hit_latency);
  f(Knob{"llc.mshr_entries", nullptr, kNonzero}, c.llc.mshr_entries);

  f(Knob{"dram.channels"}, c.dram.channels);
  f(Knob{"dram.banks_per_channel"}, c.dram.banks_per_channel);
  f(Knob{"dram.row_bytes"}, c.dram.row_bytes);
  f(Knob{"dram.tcas"}, c.dram.tcas);
  f(Knob{"dram.trcd"}, c.dram.trcd);
  f(Knob{"dram.trp"}, c.dram.trp);
  f(Knob{"dram.bus_bytes"}, c.dram.bus_bytes);
  f(Knob{"dram.interchunk"}, c.dram.interchunk);
  f(Knob{"dram.critical_bytes"}, c.dram.critical_bytes);
  f(Knob{"dram.open_page"}, c.dram.open_page);

  f(Knob{"predictor.gshare_entries"}, c.predictor.gshare_entries);
  f(Knob{"predictor.history_bits"}, c.predictor.history_bits);
  f(Knob{"predictor.btb_entries"}, c.predictor.btb_entries);
  f(Knob{"predictor.btb_ways"}, c.predictor.btb_ways);
  f(Knob{"load_hit_entries"}, c.load_hit_entries);
  f(Knob{"load_hit_history"}, c.load_hit_history);

  f(Knob{"audit.level", "audit"}, c.audit.level);
  f(Knob{"audit.cheap_interval", "audit_cheap_interval", kNonzero}, c.audit.cheap_interval);
  f(Knob{"audit.full_interval", "audit_full_interval", kNonzero}, c.audit.full_interval);
  f(Knob{"audit.abort_on_violation", "audit_abort"}, c.audit.abort_on_violation);

  f(Knob{"telemetry.sample_interval", "sample"}, c.telemetry.sample_interval);
  f(Knob{"seed", "seed"}, c.seed);
}

/// Applies every knob whose CLI key `opts` sets (Options::has marks it
/// read), then the llc= and dram= specs. A value parses by its field's
/// type: a u32 or u64 rejects one out of range, a kKiB knob one whose byte
/// count overflows 64 bits, an enum an unknown name. Throws
/// std::invalid_argument naming the key.
MachineConfig apply_overrides(MachineConfig cfg, const Options& opts);

/// Parses an LLC spec "size_kb[:ways[:latency[:mshr]]]" (e.g. "8192:16:24:32")
/// onto cfg.llc and enables it, each field parsed as its knob is.
void apply_llc_spec(MachineConfig& cfg, const std::string& spec);

/// Parses a DRAM spec "channels[:banks[:tcas[:trcd[:trp]]]]" (e.g.
/// "2:8:240:160:100") onto cfg.dram, each field parsed as its knob is.
void apply_dram_spec(MachineConfig& cfg, const std::string& spec);

}  // namespace tlrob

#include "sim/config_override.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace tlrob {

namespace {

/// Sets `field` from option `key` of `opts`, parsed by the field's type.
template <typename T>
void parse_knob(const Options& opts, const std::string& key, const Knob& k, T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    field = opts.get_bool(key, field);
  } else if constexpr (std::is_same_v<T, u32>) {
    field = opts.get_u32(key, field);
  } else if constexpr (std::is_same_v<T, u64>) {
    const u64 v = opts.get_u64(key, field);
    const bool kib = (k.flags & kKiB) != 0;
    if (kib && v > (~u64{0} >> 10))
      throw std::invalid_argument("option " + key + ": " + std::to_string(v) +
                                  " KiB overflows 64 bits");
    field = kib ? v << 10 : v;
  } else if constexpr (std::is_same_v<T, RobScheme>) {
    field = parse_scheme(opts.get(key));
  } else if constexpr (std::is_same_v<T, FetchPolicyKind>) {
    field = parse_fetch_policy(opts.get(key));
  } else {
    static_assert(std::is_same_v<T, AuditLevel>);
    field = parse_audit_level(opts.get(key));
  }
}

/// Sets the knobs named `fields`, in order, from the ":"-separated `spec`;
/// knobs past the spec's last field keep their values.
void apply_spec(MachineConfig& cfg, const char* what, const std::string& spec,
                const std::vector<std::string>& fields) {
  Options values;
  for (size_t i = 0, pos = 0;; ++i) {
    if (i == fields.size())
      throw std::invalid_argument(std::string(what) + " spec: too many fields in \"" + spec +
                                  "\"");
    const size_t colon = spec.find(':', pos);
    values.set(fields[i], spec.substr(pos, colon - pos));  // npos - pos: to the end
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  for_each_knob(cfg, [&](const Knob& k, auto& field) {
    if (values.has(k.name)) parse_knob(values, k.name, k, field);
  });
}

}  // namespace

void apply_llc_spec(MachineConfig& cfg, const std::string& spec) {
  cfg.llc.enabled = true;
  apply_spec(cfg, "llc", spec,
             {"llc.geo.size_bytes", "llc.geo.ways", "llc.hit_latency", "llc.mshr_entries"});
}

void apply_dram_spec(MachineConfig& cfg, const std::string& spec) {
  apply_spec(cfg, "dram", spec,
             {"dram.channels", "dram.banks_per_channel", "dram.tcas", "dram.trcd", "dram.trp"});
}

MachineConfig apply_overrides(MachineConfig cfg, const Options& opts) {
  for_each_knob(cfg, [&](const Knob& k, auto& field) {
    if (k.cli != nullptr && opts.has(k.cli)) parse_knob(opts, k.cli, k, field);
  });
  // An llc spec alone builds a 1-core machine with an LLC; cores > 1
  // without one gets the default LLC geometry.
  if (opts.has("llc")) apply_llc_spec(cfg, opts.get("llc"));
  if (opts.has("dram")) apply_dram_spec(cfg, opts.get("dram"));
  return cfg;
}

}  // namespace tlrob

#include "sim/presets.hpp"

#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "isa/static_inst.hpp"
#include "sim/config_override.hpp"

namespace tlrob {

namespace {

bool is_pow2(u64 v) { return v != 0 && (v & (v - 1)) == 0; }

/// How an error names a knob: its table path, and its CLI key if that
/// differs.
std::string label(const Knob& k) {
  std::string out = k.name;
  if (k.cli != nullptr && out != k.cli) {
    out += " (";
    out += k.cli;
    out += ')';
  }
  return out;
}

/// Throws std::invalid_argument naming the knob whose field is `field`.
[[noreturn]] void reject(const MachineConfig& cfg, const void* field, const std::string& why) {
  std::string what = "MachineConfig: ";
  for_each_knob(cfg, [&](const Knob& k, const auto& value) {
    if (static_cast<const void*>(&value) == field) what += label(k);
  });
  what += ' ';
  what += why;
  throw std::invalid_argument(what);
}

}  // namespace

const MachineConfig& MachineConfig::validate() const {
  for_each_knob(*this, [](const Knob& k, const auto& value) {
    if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(value)>>)
      if ((k.flags & kNonzero) != 0 && value == 0)
        throw std::invalid_argument(std::string("MachineConfig: ") + k.name +
                                    " must be nonzero");
  });
  if (rob_second_level == 0 && uses_second_level(rob.scheme))
    throw std::invalid_argument(std::string("MachineConfig: rob_second_level must be nonzero "
                                            "under scheme ") +
                                rob_scheme_name(rob.scheme));
  // FLUSH un-dispatches instructions, which cannot restore a register an
  // early release already freed.
  if (early_register_release && fetch_policy == FetchPolicyKind::kFlush)
    reject(*this, &fetch_policy, "flush is incompatible with early_register_release");
  // The shapes the Cache and RenameUnit constructors need, checked here too
  // so the error names the knob rather than the structure.
  auto check_cache = [this](const CacheGeometry& g) {
    if (!is_pow2(g.line_bytes)) reject(*this, &g.line_bytes, "must be a power of two");
    const u64 lines = g.size_bytes / g.line_bytes;
    if (g.ways == 0 || lines % g.ways != 0)
      reject(*this, &g.ways, "must divide the line count " + std::to_string(lines));
    if (!is_pow2(lines / g.ways))
      reject(*this, &g.size_bytes,
             "gives " + std::to_string(lines / g.ways) +
                 " sets; the set count must be a nonzero power of two");
  };
  check_cache(memory.l1i);
  check_cache(memory.l1d);
  check_cache(memory.l2);
  if (has_shared_backend()) {
    check_cache(llc.geo);
    // The address mapping DramModel's constructor needs.
    for (const u32* field : {&dram.channels, &dram.banks_per_channel, &dram.row_bytes})
      if (!is_pow2(*field)) reject(*this, field, "must be a power of two");
    if (dram.row_bytes < llc.geo.line_bytes)
      reject(*this, &dram.row_bytes,
             "must be at least llc.geo.line_bytes (" + std::to_string(llc.geo.line_bytes) + ")");
  }
  // The predictor tables index by mask, and their histories shift into
  // fixed-width registers: gshare's u16, the load-hit predictor's u32.
  for (const u32* field :
       {&rob.predictor_entries, &predictor.gshare_entries, &load_hit_entries})
    if (!is_pow2(*field)) reject(*this, field, "must be a power of two");
  const PredictorConfig& bp = predictor;
  if (bp.btb_ways == 0 || bp.btb_entries % bp.btb_ways != 0)
    reject(*this, &bp.btb_ways,
           "must divide predictor.btb_entries (" + std::to_string(bp.btb_entries) + ")");
  if (!is_pow2(bp.btb_entries / bp.btb_ways))
    reject(*this, &bp.btb_entries,
           "gives " + std::to_string(bp.btb_entries / bp.btb_ways) +
               " sets; the set count must be a nonzero power of two");
  if (bp.history_bits > 16) reject(*this, &bp.history_bits, "must be at most 16");
  if (load_hit_history > 31) reject(*this, &load_hit_history, "must be at most 31");
  // Each register file keeps the committed architectural state of every
  // thread it serves resident.
  const u64 served = shared_regfile ? num_threads : 1;
  if (int_regs <= served * kNumIntArchRegs)
    reject(*this, &int_regs,
           "must exceed the " + std::to_string(served * kNumIntArchRegs) +
               " committed architectural registers of its file");
  if (fp_regs <= served * kNumFpArchRegs)
    reject(*this, &fp_regs,
           "must exceed the " + std::to_string(served * kNumFpArchRegs) +
               " committed architectural registers of its file");
  return *this;
}

MachineConfig baseline32_config() {
  MachineConfig cfg;  // defaults are Table 1
  cfg.rob_second_level = 0;
  cfg.rob.scheme = RobScheme::kBaseline;
  return cfg;
}

MachineConfig baseline128_config() {
  MachineConfig cfg = baseline32_config();
  cfg.rob_first_level = 128;
  return cfg;
}

MachineConfig two_level_config(RobScheme scheme, u32 dod_threshold) {
  if (scheme == RobScheme::kBaseline) return baseline32_config();
  MachineConfig cfg;
  cfg.rob.scheme = scheme;
  cfg.rob.dod_threshold = dod_threshold;
  if (!uses_second_level(scheme)) cfg.rob_second_level = 0;
  return cfg;
}

MachineConfig single_thread_config() {
  MachineConfig cfg = baseline32_config();
  cfg.num_threads = 1;
  return cfg;
}

MachineConfig cmp_config(u32 cores, RobScheme scheme, u32 dod_threshold) {
  MachineConfig cfg = two_level_config(scheme, dod_threshold);
  cfg.num_cores = cores;
  cfg.llc.enabled = true;
  return cfg;
}

std::string describe(const MachineConfig& cfg) {
  std::ostringstream os;
  for_each_knob(cfg, [&]<typename T>(const Knob& k, const T& value) {
    os << std::left << std::setw(kDescribeLabelWidth) << label(k) << ' ';
    if constexpr (std::is_same_v<T, RobScheme>)
      os << rob_scheme_name(value);
    else if constexpr (std::is_same_v<T, FetchPolicyKind>)
      os << fetch_policy_name(value);
    else if constexpr (std::is_same_v<T, AuditLevel>)
      os << audit_level_name(value);
    else if (k.cli != nullptr && (k.flags & kKiB) != 0)
      os << (static_cast<u64>(value) >> 10);  // in the unit of the key beside it
    else
      os << static_cast<u64>(value);
    os << '\n';
  });
  return os.str();
}

}  // namespace tlrob

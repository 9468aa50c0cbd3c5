#include "sim/presets.hpp"

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
  os << "cores                  " << cfg.num_cores << "\n"
     << "threads (per core)     " << cfg.num_threads << "\n"
     << "fetch width            " << cfg.fetch_width << " (up to " << cfg.fetch_threads
     << " threads/cycle)\n"
     << "issue width            " << cfg.issue_width << "\n"
     << "commit width           " << cfg.commit_width << "\n"
     << "rob level-1 (per thr)  " << cfg.rob_first_level << "\n"
     << "rob level-2 (shared)   " << cfg.rob_second_level << "\n"
     << "iq entries (shared)    " << cfg.iq_entries << "\n"
     << "lsq entries (per thr)  " << cfg.lsq_entries << "\n"
     << "int/fp physical regs   " << cfg.int_regs << "/" << cfg.fp_regs << "\n"
     << "fetch policy           " << fetch_policy_name(cfg.fetch_policy) << "\n"
     << "rob scheme             " << rob_scheme_name(cfg.rob.scheme) << " (DoD threshold "
     << cfg.rob.dod_threshold << ")\n"
     << "l1i                    " << (cfg.memory.l1i.size_bytes >> 10) << "KB/"
     << cfg.memory.l1i.ways << "w/" << cfg.memory.l1i.line_bytes << "B/"
     << cfg.memory.l1i.hit_latency << "cyc\n"
     << "l1d                    " << (cfg.memory.l1d.size_bytes >> 10) << "KB/"
     << cfg.memory.l1d.ways << "w/" << cfg.memory.l1d.line_bytes << "B/"
     << cfg.memory.l1d.hit_latency << "cyc\n"
     << "l2                     " << (cfg.memory.l2.size_bytes >> 20) << "MB/"
     << cfg.memory.l2.ways << "w/" << cfg.memory.l2.line_bytes << "B/"
     << cfg.memory.l2.hit_latency << "cyc\n"
     << "memory                 " << cfg.memory.channel.first_chunk << "cyc first chunk, "
     << cfg.memory.channel.interchunk << "cyc interchunk, " << cfg.memory.channel.bus_bytes * 8
     << "-bit bus\n";
  if (cfg.has_shared_backend())
    os << "llc (shared)           " << (cfg.llc.geo.size_bytes >> 10) << "KB/" << cfg.llc.geo.ways
       << "w/" << cfg.llc.geo.line_bytes << "B/" << cfg.llc.geo.hit_latency << "cyc, "
       << cfg.llc.mshr_entries << " MSHRs\n"
       << "dram (shared)          " << cfg.dram.channels << "ch x " << cfg.dram.banks_per_channel
       << " banks, " << cfg.dram.row_bytes << "B rows, tCAS/tRCD/tRP " << cfg.dram.tcas << "/"
       << cfg.dram.trcd << "/" << cfg.dram.trp << "cyc, "
       << (cfg.dram.open_page ? "open" : "closed") << "-page\n";
  os
     << "branch predictor       " << cfg.predictor.gshare_entries << "-entry gshare, "
     << cfg.predictor.history_bits << "-bit history/thread\n"
     << "btb                    " << cfg.predictor.btb_entries << " entries, "
     << cfg.predictor.btb_ways << "-way\n"
     << "load-hit predictor     " << cfg.load_hit_entries << "-entry bimodal, "
     << cfg.load_hit_history << "-bit history/thread\n"
     << "invariant audit        " << audit_level_name(cfg.audit.level);
  if (cfg.audit.level != AuditLevel::kOff)
    os << " (cheap every " << cfg.audit.cheap_interval << ", full every "
       << cfg.audit.full_interval << " cycles, "
       << (cfg.audit.abort_on_violation ? "abort" : "record") << " on violation)";
  os << "\n";
  return os.str();
}

}  // namespace tlrob

#include "sim/presets.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace tlrob {

const MachineConfig& MachineConfig::validate() const {
  const std::pair<const char*, u64> nonzero[] = {
      {"num_threads", num_threads},
      {"fetch_width", fetch_width},
      {"fetch_threads", fetch_threads},
      {"dispatch_width", dispatch_width},
      {"issue_width", issue_width},
      {"commit_width", commit_width},
      {"frontend_buffer", frontend_buffer},
      {"rob_first_level", rob_first_level},
      {"iq_entries", iq_entries},
      {"lsq_entries", lsq_entries},
      {"rob.recheck_interval", rob.recheck_interval},
  };
  for (const auto& [field, value] : nonzero)
    if (value == 0)
      throw std::invalid_argument(std::string("MachineConfig: ") + field + " must be nonzero");
  // Baseline has no second level and Adaptive grows the private ROBs; every
  // other scheme allocates out of the shared second level.
  if (rob_second_level == 0 && rob.scheme != RobScheme::kBaseline &&
      rob.scheme != RobScheme::kAdaptive)
    throw std::invalid_argument(std::string("MachineConfig: rob_second_level must be nonzero "
                                            "under scheme ") +
                                rob_scheme_name(rob.scheme));
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
  MachineConfig cfg;
  cfg.rob.scheme = scheme;
  cfg.rob.dod_threshold = dod_threshold;
  if (scheme == RobScheme::kAdaptive) cfg.rob_second_level = 0;  // private growth only
  return cfg;
}

MachineConfig single_thread_config() {
  MachineConfig cfg = baseline32_config();
  cfg.num_threads = 1;
  return cfg;
}

MachineConfig cmp_config(u32 cores, RobScheme scheme, u32 dod_threshold) {
  MachineConfig cfg = scheme == RobScheme::kBaseline ? baseline32_config()
                                                     : two_level_config(scheme, dod_threshold);
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
  if (cfg.llc.enabled || cfg.num_cores > 1)
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

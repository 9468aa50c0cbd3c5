// Invariant-audit configuration and the read-only view of live pipeline
// state that checks run against.
//
// The audit subsystem makes the simulator's microarchitectural contracts
// (DESIGN.md §"Invariants & auditing") executable: the core hands every
// registered check an AuditContext at audit points and the checks recount /
// cross-reference the live structures. Everything here is compiled in
// unconditionally; the AuditLevel decides at runtime how much work is done,
// so release builds can leave the cheap tier on permanently (CI does).
//
// Dependency note: this header is included by sim/presets.hpp (MachineConfig
// embeds an AuditConfig), so it must not pull in pipeline headers — the
// structures referenced by AuditContext are forward-declared and only the
// check implementations include their full definitions.
#pragma once

#include <string>
#include <vector>

#include "common/names.hpp"
#include "common/types.hpp"

namespace tlrob {

class ReorderBuffer;
class LoadStoreQueue;
class IssueQueue;
class RenameUnit;
class SecondLevelRob;
class SharedMemory;
class TwoLevelRobController;
class EventWheel;
enum class RobScheme : u8;

/// How much auditing runs.
///   kOff:   no checks at all (beyond the per-event hooks being no-ops).
///   kCheap: O(window) structural checks every `cheap_interval` cycles —
///           cheap enough to leave on in CI (DESIGN.md §6 records its cost).
///   kFull:  kCheap plus the ground-truth recounts (DoD, cross-structure
///           pointer identity, rename free-list integrity) every
///           `full_interval` cycles.
enum class AuditLevel : u8 { kOff, kCheap, kFull };

/// The audit= and $TLROB_AUDIT vocabulary; "none" is an alias.
inline constexpr EnumName<AuditLevel> kAuditLevelNames[] = {
    {AuditLevel::kOff, "off"}, {AuditLevel::kCheap, "cheap"}, {AuditLevel::kFull, "full"},
    {AuditLevel::kOff, "none"}};

inline const char* audit_level_name(AuditLevel level) {
  return enum_row(kAuditLevelNames, level).name;
}

inline AuditLevel parse_audit_level(const std::string& name) {
  return parse_enum(kAuditLevelNames, name, "audit level");
}

struct AuditConfig {
  AuditLevel level = AuditLevel::kOff;
  /// Cheap-tier period in cycles (1 = every cycle; InvariantChecker::run_span
  /// says where the points fall in a fast-forwarded span). The default
  /// catches a corruption within 8 cycles of it happening (bench_sim_speed's
  /// audit-overhead benchmarks measure the cost; DESIGN.md §6 records it).
  Cycle cheap_interval = 8;
  /// Full-recount period in cycles (kFull only).
  Cycle full_interval = 64;
  /// Throw AuditFailure (with the structured report) on the first violation
  /// instead of only recording it. CI runs with this on so a scheme
  /// regression fails the suite even when the IPC numbers still look sane.
  bool abort_on_violation = false;
  /// Violations kept with full detail; later ones are only counted.
  u32 max_recorded = 64;
};

/// The process-default audit configuration: level from $TLROB_AUDIT
/// (off|cheap|full, default off), abort-on-violation enabled whenever a
/// level is set unless $TLROB_AUDIT_ABORT=0. MachineConfig uses this as its
/// initial value, which is how `ctest` runs pick up auditing without every
/// test constructing it explicitly.
AuditConfig default_audit_config();

/// Read-only view of the live pipeline handed to every check. Built once by
/// the core (the pointers are stable for its lifetime); only `cycle` and the
/// per-thread scalar snapshots are refreshed per audit.
struct AuditContext {
  Cycle cycle = 0;
  u32 num_threads = 0;
  RobScheme scheme{};
  u32 adaptive_max_extra = 0;  // kAdaptive growth bound (scheme-aware checks)

  std::vector<const ReorderBuffer*> robs;      // [thread]
  std::vector<const LoadStoreQueue*> lsqs;     // [thread]
  const IssueQueue* iq = nullptr;
  const RenameUnit* rename = nullptr;
  const SecondLevelRob* second = nullptr;
  const TwoLevelRobController* ctrl = nullptr;
  const EventWheel* wheel = nullptr;
  /// CMP machines: the machine-wide LLC/DRAM backend behind this core's L2
  /// (null on single-core configurations without an LLC — the shared-memory
  /// check is then a no-op).
  const SharedMemory* shared = nullptr;

  /// Per-thread outstanding-miss counters as the core sees them (the checks
  /// recount the flags in the window against these).
  std::vector<u32> outstanding_l1;  // [thread]
  std::vector<u32> outstanding_l2;  // [thread]

  /// tseq of the last instruction each thread committed (0 = none yet);
  /// maintained by InvariantChecker::on_commit.
  const std::vector<u64>* last_committed = nullptr;
};

}  // namespace tlrob

// Invariant-audit configuration: the level, the two tiers' periods and
// whether the first violation aborts.
//
// The audit subsystem makes the simulator's microarchitectural contracts
// (DESIGN.md §"Invariants & auditing") executable: at audit points the core
// runs every check over itself (verify/invariant_checker.hpp) and the checks
// recount / cross-reference the live structures. Everything is compiled in
// unconditionally; the AuditLevel decides at runtime how much work is done,
// so release builds can leave the cheap tier on permanently (CI does).
//
// Dependency note: this header is included by sim/presets.hpp (MachineConfig
// embeds an AuditConfig), so it must not pull in pipeline headers.
#pragma once

#include <string>

#include "common/names.hpp"
#include "common/types.hpp"

namespace tlrob {

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
  /// Cheap-tier period in cycles, nonzero (1 = every cycle; InvariantChecker::run_span
  /// says where the points fall in a fast-forwarded span). The default
  /// catches a corruption within 8 cycles of it happening (bench_sim_speed's
  /// audit-overhead benchmarks measure the cost; DESIGN.md §6 records it).
  Cycle cheap_interval = 8;
  /// Full-recount period in cycles, nonzero (kFull only).
  Cycle full_interval = 64;
  /// Throw AuditFailure (with the structured report) on the first violation
  /// instead of only recording it. CI runs with this on so a scheme
  /// regression fails the suite even when the IPC numbers still look sane.
  bool abort_on_violation = false;
};

/// The process-default audit configuration: level from $TLROB_AUDIT
/// (off|cheap|full, default off), abort-on-violation enabled whenever a
/// level is set unless $TLROB_AUDIT_ABORT=0. MachineConfig uses this as its
/// initial value, which is how `ctest` runs pick up auditing without every
/// test constructing it explicitly.
AuditConfig default_audit_config();

}  // namespace tlrob

// Driver for the pipeline invariant checks.
//
// A check is a plain function over the core it audits (`const SmtCore&`),
// the audit-point cycle and the checker, through which it reports
// violations; verify/checks/checks.hpp lists the standard set with their
// tiers. The checker owns the violation log, the per-event commit-order
// state, the audit statistics, and the tier gating (cheap checks on
// multiples of cheap_interval, full checks on multiples of full_interval at
// AuditLevel::kFull).
//
// Violations are structured (cycle, thread, check id, detail) so a CI
// failure names the broken contract instead of dumping an IPC diff; with
// AuditConfig::abort_on_violation the first one throws AuditFailure carrying
// the full report.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "verify/audit_config.hpp"

namespace tlrob {

struct AuditStats {
  u64 checks_run = 0;  // one check over one context = 1
  u64 violations = 0;
};

inline constexpr auto kAuditStatFields = std::to_array<StatField<AuditStats>>({
    {&AuditStats::checks_run, "checks_run"},
    {&AuditStats::violations, "violations"},
});
static_assert(names_every_field(kAuditStatFields));

/// Every violation kind a check may report, each counted as
/// "violations.<kind>" (InvariantChecker::violations_by_kind is indexed
/// like this list).
inline constexpr auto kViolationKinds = std::to_array<const char*>({
    "commit.order", "dod.execflag", "dod.outstanding", "dod.recount", "events.wheel",
    "iq.counts", "iq.rob_identity", "lsq.occupancy", "pool.liveness", "rename.accounting",
    "rob.capacity", "rob.order", "rob2.candidate", "rob2.ownership", "rob2.trigger",
    "shared.memory",
});

/// One recorded contract violation.
struct AuditViolation {
  Cycle cycle = 0;
  ThreadId tid = 0;       // kNoThread when not thread-specific
  std::string check;      // dotted check id, e.g. "rob2.trigger"
  std::string detail;     // offending entries / counts
};

inline constexpr ThreadId kNoThread = 0xffffffffu;

/// Thrown by the checker when abort_on_violation is set.
class AuditFailure : public std::runtime_error {
 public:
  explicit AuditFailure(const std::string& what) : std::runtime_error(what) {}
};

class InvariantChecker;
class SmtCore;

/// When a check runs: every cheap_interval cycles, or every full_interval
/// cycles at AuditLevel::kFull.
enum class AuditTier : u8 { kCheap, kFull };

/// One invariant check: a tier and a function that inspects `core` at the
/// audit point `cycle` and reports through InvariantChecker::violation. The
/// core is const: a check never mutates pipeline state.
struct AuditCheck {
  AuditTier tier;
  void (*run)(const SmtCore& core, Cycle cycle, InvariantChecker& out);
};

class InvariantChecker {
 public:
  /// Violations kept with full detail; later ones are only counted.
  static constexpr u32 kMaxRecorded = 64;

  /// Installs the standard checks (kStandardChecks). `cfg`'s intervals must
  /// be nonzero (MachineConfig::validate).
  explicit InvariantChecker(const AuditConfig& cfg, u32 num_threads);

  /// Adds a check after the standard ones (tests drive the span rule with
  /// recording checks).
  void add_check(AuditCheck check) { checks_.push_back(check); }

  bool enabled() const { return cfg_.level != AuditLevel::kOff; }

  /// The one audit driver, over cycles [from, to) (from <= to) in which
  /// `core`'s state does not change: one executed tick, or an idle span the
  /// fast-forward skips. Honours the level; each tier runs once, at the
  /// first of its audit points inside the span, and reports that cycle.
  void run_span(const SmtCore& core, Cycle from, Cycle to);

  /// Runs every check (both tiers) over `core` immediately, at its current
  /// cycle, regardless of level or interval. Returns the number of
  /// violations found by this sweep. Used by tests and by
  /// SmtCore::audit_now().
  u32 run_all(const SmtCore& core);

  /// Per-event hook: thread `tid` committed the ROB head with sequence
  /// `tseq`. Verifies per-thread program order and feeds the head-vs-
  /// committed cross check.
  void on_commit(ThreadId tid, u64 tseq, Cycle now);

  /// Records a violation (called by checks); `check` must be one of
  /// kViolationKinds. Honours kMaxRecorded and abort_on_violation.
  void violation(Cycle cycle, ThreadId tid, const char* check, std::string detail);

  const std::vector<AuditViolation>& violations() const { return violations_; }
  u64 total_violations() const { return stats_.violations; }
  u64 checks_executed() const { return stats_.checks_run; }
  const std::vector<u64>& last_committed() const { return last_committed_; }

  /// Human-readable structured report of every recorded violation.
  std::string report() const;

  const AuditStats& stats() const { return stats_; }
  const std::vector<u64>& violations_by_kind() const { return violations_by_kind_; }

 private:
  void run_tier(const SmtCore& core, Cycle cycle, AuditTier tier);

  AuditConfig cfg_;
  std::vector<AuditCheck> checks_;
  std::vector<u64> last_committed_;  // per thread; 0 = nothing committed
  std::vector<AuditViolation> violations_;
  AuditStats stats_;
  std::vector<u64> violations_by_kind_ = std::vector<u64>(kViolationKinds.size(), 0);
};

}  // namespace tlrob

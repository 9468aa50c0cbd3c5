#include "verify/invariant_checker.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "sim/smt_sim.hpp"
#include "verify/checks/checks.hpp"

namespace tlrob {

AuditConfig default_audit_config() {
  // Computed once: the environment is the process-wide CI switch, not a
  // per-config knob (explicit assignment to MachineConfig::audit overrides).
  static const AuditConfig cached = [] {
    AuditConfig cfg;
    if (const char* level = std::getenv("TLROB_AUDIT"); level != nullptr && *level != '\0') {
      cfg.level = parse_audit_level(level);
      cfg.abort_on_violation = cfg.level != AuditLevel::kOff;
    }
    if (const char* abort_env = std::getenv("TLROB_AUDIT_ABORT");
        abort_env != nullptr && *abort_env != '\0')
      cfg.abort_on_violation = std::string(abort_env) != "0";
    return cfg;
  }();
  return cached;
}

InvariantChecker::InvariantChecker(const AuditConfig& cfg, u32 num_threads)
    : cfg_(cfg),
      checks_(std::begin(kStandardChecks), std::end(kStandardChecks)),
      last_committed_(num_threads, 0) {}

void InvariantChecker::run_tier(const SmtCore& core, Cycle cycle, AuditTier tier) {
  for (const AuditCheck& check : checks_) {
    if (check.tier != tier) continue;
    check.run(core, cycle, *this);
    ++stats_.checks_run;
  }
}

void InvariantChecker::run_span(const SmtCore& core, Cycle from, Cycle to) {
  if (cfg_.level == AuditLevel::kOff) return;
  auto at_first_point = [&](AuditTier tier, Cycle interval) {
    const Cycle gap = (interval - from % interval) % interval;  // cannot overflow
    if (gap >= to - from) return;
    run_tier(core, from + gap, tier);
  };
  at_first_point(AuditTier::kCheap, cfg_.cheap_interval);
  if (cfg_.level == AuditLevel::kFull) at_first_point(AuditTier::kFull, cfg_.full_interval);
}

u32 InvariantChecker::run_all(const SmtCore& core) {
  const u64 before = stats_.violations;
  run_tier(core, core.now(), AuditTier::kCheap);
  run_tier(core, core.now(), AuditTier::kFull);
  return static_cast<u32>(stats_.violations - before);
}

void InvariantChecker::on_commit(ThreadId tid, u64 tseq, Cycle now) {
  if (cfg_.level == AuditLevel::kOff) return;
  u64& last = last_committed_[tid];
  if (tseq <= last) {
    std::ostringstream os;
    os << "committed tseq " << tseq << " after tseq " << last
       << " (per-thread commit must be in program order)";
    violation(now, tid, "commit.order", os.str());
  }
  last = tseq;
}

void InvariantChecker::violation(Cycle cycle, ThreadId tid, const char* check,
                                 std::string detail) {
  const auto kind = std::find_if(kViolationKinds.begin(), kViolationKinds.end(),
                                 [check](const char* k) { return std::strcmp(k, check) == 0; });
  if (kind == kViolationKinds.end())
    throw std::logic_error(std::string("unlisted violation kind ") + check);
  ++violations_by_kind_[static_cast<size_t>(kind - kViolationKinds.begin())];
  ++stats_.violations;
  if (violations_.size() < kMaxRecorded)
    violations_.push_back(AuditViolation{cycle, tid, check, std::move(detail)});
  if (cfg_.abort_on_violation) throw AuditFailure("pipeline invariant violated\n" + report());
}

std::string InvariantChecker::report() const {
  std::ostringstream os;
  os << "audit report: " << stats_.violations << " violation(s), " << stats_.checks_run
     << " check execution(s)\n";
  for (const AuditViolation& v : violations_) {
    os << "  [cycle " << v.cycle << "] ";
    if (v.tid != kNoThread) os << "thread " << v.tid << " ";
    os << v.check << ": " << v.detail << "\n";
  }
  if (stats_.violations > violations_.size())
    os << "  ... " << (stats_.violations - violations_.size()) << " more not recorded\n";
  return os.str();
}

}  // namespace tlrob

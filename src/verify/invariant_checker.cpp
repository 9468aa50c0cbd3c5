#include "verify/invariant_checker.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

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
    : cfg_(cfg), last_committed_(num_threads, 0) {
  if (cfg_.cheap_interval == 0) cfg_.cheap_interval = 1;
  if (cfg_.full_interval == 0) cfg_.full_interval = 1;
  register_check(make_rob_order_check());
  register_check(make_second_level_check());
  register_check(make_iq_counts_check());
  register_check(make_occupancy_check());
  register_check(make_dod_recount_check());
  register_check(make_pool_check());
  register_check(make_event_wheel_check());
  register_check(make_shared_memory_check());
}

void InvariantChecker::register_check(std::unique_ptr<InvariantCheck> check) {
  checks_.push_back(std::move(check));
}

void InvariantChecker::run_tier(const AuditContext& ctx, InvariantCheck::Tier tier) {
  for (const auto& check : checks_) {
    if (check->tier() != tier) continue;
    check->run(ctx, *this);
    ++stats_.checks_run;
  }
}

void InvariantChecker::run_span(AuditContext& ctx, Cycle from, Cycle to) {
  if (cfg_.level == AuditLevel::kOff) return;
  auto at_first_point = [&](InvariantCheck::Tier tier, Cycle interval) {
    const Cycle gap = (interval - from % interval) % interval;  // cannot overflow
    if (gap >= to - from) return;
    ctx.cycle = from + gap;
    run_tier(ctx, tier);
  };
  at_first_point(InvariantCheck::Tier::kCheap, cfg_.cheap_interval);
  if (cfg_.level == AuditLevel::kFull)
    at_first_point(InvariantCheck::Tier::kFull, cfg_.full_interval);
}

u32 InvariantChecker::run_all(const AuditContext& ctx) {
  const u64 before = stats_.violations;
  run_tier(ctx, InvariantCheck::Tier::kCheap);
  run_tier(ctx, InvariantCheck::Tier::kFull);
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
  if (violations_.size() < cfg_.max_recorded)
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

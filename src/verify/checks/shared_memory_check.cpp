// Shared LLC/DRAM backend consistency (cheap).
//
// CMP machines couple cores only through SharedMemory, so a bookkeeping bug
// there corrupts every core at once while each core's private structures
// still audit clean. The backend carries its own self-check (MSHR-pool
// bound, DRAM row-outcome conservation, closed-page bank state); this check
// surfaces it through the standard audit path so CMP fuzz runs abort with a
// structured report instead of silently drifting.
#include "memory/shared_memory.hpp"
#include "verify/checks/checks.hpp"

namespace tlrob {
namespace {

class SharedMemoryCheck final : public InvariantCheck {
 public:
  Tier tier() const override { return Tier::kCheap; }

  void run(const AuditContext& ctx, InvariantChecker& out) const override {
    if (ctx.shared == nullptr) return;
    std::string detail = ctx.shared->audit_check();
    if (!detail.empty())
      out.violation(ctx.cycle, kNoThread, "shared.memory", std::move(detail));
  }
};

}  // namespace

std::unique_ptr<InvariantCheck> make_shared_memory_check() {
  return std::make_unique<SharedMemoryCheck>();
}

}  // namespace tlrob

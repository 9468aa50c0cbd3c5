// Shared LLC/DRAM backend consistency (cheap).
//
// CMP machines couple cores only through SharedMemory, so a bookkeeping bug
// there corrupts every core at once while each core's private structures
// still audit clean. The backend carries its own self-check (MSHR-pool
// bound, DRAM row-outcome conservation, closed-page bank state); this check
// surfaces it through the standard audit path so CMP fuzz runs abort with a
// structured report instead of silently drifting.
#include "memory/shared_memory.hpp"
#include "sim/smt_sim.hpp"
#include "verify/checks/checks.hpp"

namespace tlrob {

void check_shared_memory(const SmtCore& core, Cycle cycle, InvariantChecker& out) {
  if (core.shared_memory() == nullptr) return;
  std::string detail = core.shared_memory()->audit_check();
  if (!detail.empty()) out.violation(cycle, kNoThread, "shared.memory", std::move(detail));
}

}  // namespace tlrob

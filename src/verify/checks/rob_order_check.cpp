// ROB structural integrity (cheap tier).
//
// The rest of the simulator leans on these properties without re-verifying
// them: find() binary-searches assuming the window is tseq-sorted, the DoD
// counter assumes deque position == age, and commit assumes the head is the
// oldest in-flight instruction. A refactor that breaks any of them corrupts
// results silently — IPC still comes out, just wrong.
#include <sstream>

#include "sim/smt_sim.hpp"
#include "verify/checks/checks.hpp"

namespace tlrob {

void check_rob_order(const SmtCore& core, Cycle cycle, InvariantChecker& out) {
  // Occupancy may legitimately exceed the *currently granted* capacity
  // while a thread drains back into its first level after a revocation
  // (grant_extra(0) shrinks capacity immediately; commit drains the
  // excess). The hard ceiling is the largest window any grant allows.
  const RobPolicyConfig& policy = core.config().rob;
  u32 max_grant = 0;
  if (policy.scheme == RobScheme::kAdaptive)
    max_grant = policy.adaptive_max_extra;
  else if (policy.scheme != RobScheme::kBaseline)
    max_grant = core.second_level().entries();

  for (ThreadId t = 0; t < core.config().num_threads; ++t) {
    const ReorderBuffer& rob = core.rob(t);
    if (rob.size() > rob.base_capacity() + max_grant) {
      std::ostringstream os;
      os << "occupancy " << rob.size() << " exceeds base capacity " << rob.base_capacity()
         << " + largest possible grant " << max_grant;
      out.violation(cycle, t, "rob.capacity", os.str());
    }

    // The head must be younger than everything this thread already
    // committed (head-oldest + in-order commit stitched together).
    const u64 committed = out.last_committed()[t];
    u64 prev_tseq = 0;
    bool first = true;
    rob.for_each([&](const DynInst& d) {
      if (d.tid != t) {
        std::ostringstream os;
        os << "entry tseq " << d.tseq << " belongs to thread " << d.tid;
        out.violation(cycle, t, "rob.order", os.str());
      }
      if (!d.dispatched) {
        std::ostringstream os;
        os << "entry tseq " << d.tseq << " is in the window but not dispatched";
        out.violation(cycle, t, "rob.order", os.str());
      }
      const u64 floor = first ? committed : prev_tseq;
      if (d.tseq <= floor) {
        std::ostringstream os;
        os << "entry tseq " << d.tseq << " not older->younger after "
           << (first ? "committed tseq " : "predecessor tseq ") << floor;
        out.violation(cycle, t, "rob.order", os.str());
      }
      prev_tseq = d.tseq;
      first = false;
    });
  }
}

}  // namespace tlrob

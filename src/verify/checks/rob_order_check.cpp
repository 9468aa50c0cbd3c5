// ROB structural integrity (cheap tier).
//
// The rest of the simulator leans on these properties without re-verifying
// them: find() binary-searches assuming the window is tseq-sorted, the DoD
// counter assumes deque position == age, and commit assumes the head is the
// oldest in-flight instruction. A refactor that breaks any of them corrupts
// results silently — IPC still comes out, just wrong.
#include <sstream>

#include "rob/allocation_policy.hpp"
#include "rob/rob.hpp"
#include "rob/two_level_rob.hpp"
#include "verify/checks/checks.hpp"

namespace tlrob {
namespace {

class RobOrderCheck final : public InvariantCheck {
 public:
  Tier tier() const override { return Tier::kCheap; }

  void run(const AuditContext& ctx, InvariantChecker& out) const override {
    // Occupancy may legitimately exceed the *currently granted* capacity
    // while a thread drains back into its first level after a revocation
    // (grant_extra(0) shrinks capacity immediately; commit drains the
    // excess). The hard ceiling is the largest window any grant allows.
    u32 max_grant = 0;
    if (ctx.scheme == RobScheme::kAdaptive)
      max_grant = ctx.adaptive_max_extra;
    else if (ctx.scheme != RobScheme::kBaseline)
      max_grant = ctx.second->entries();

    for (ThreadId t = 0; t < ctx.num_threads; ++t) {
      const ReorderBuffer& rob = *ctx.robs[t];
      if (rob.size() > rob.base_capacity() + max_grant) {
        std::ostringstream os;
        os << "occupancy " << rob.size() << " exceeds base capacity "
           << rob.base_capacity() << " + largest possible grant " << max_grant;
        out.violation(ctx.cycle, t, "rob.capacity", os.str());
      }

      // The head must be younger than everything this thread already
      // committed (head-oldest + in-order commit stitched together).
      const u64 committed = ctx.last_committed == nullptr ? 0 : (*ctx.last_committed)[t];
      u64 prev_tseq = 0;
      bool first = true;
      rob.for_each([&](const DynInst& d) {
        if (d.tid != t) {
          std::ostringstream os;
          os << "entry tseq " << d.tseq << " belongs to thread " << d.tid;
          out.violation(ctx.cycle, t, "rob.order", os.str());
        }
        if (!d.dispatched) {
          std::ostringstream os;
          os << "entry tseq " << d.tseq << " is in the window but not dispatched";
          out.violation(ctx.cycle, t, "rob.order", os.str());
        }
        const u64 floor = first ? committed : prev_tseq;
        if (d.tseq <= floor) {
          std::ostringstream os;
          os << "entry tseq " << d.tseq << " not older->younger after "
             << (first ? "committed tseq " : "predecessor tseq ") << floor;
          out.violation(ctx.cycle, t, "rob.order", os.str());
        }
        prev_tseq = d.tseq;
        first = false;
      });
    }
  }
};

}  // namespace

std::unique_ptr<InvariantCheck> make_rob_order_check() {
  return std::make_unique<RobOrderCheck>();
}

}  // namespace tlrob

// DynInst pool liveness (cheap) and event-wheel conservation (full).
//
// The in-flight windows live in fixed ring slabs (RingDeque) and every other
// structure — issue queue, LSQ — holds raw pointers into them. A commit,
// squash or un-dispatch that recycles a slot while some structure still
// points at it is the exact class of bug the ring design makes possible and
// a deque would have hidden behind allocator luck: the stale pointer keeps
// reading plausible (now someone else's) instruction state. check_pool proves
// after every audited cycle that each held pointer is a *live* slot of the
// owning thread's slab — neither foreign storage nor recycled.
//
// check_event_wheel recounts the calendar wheel: the events physically chained
// in its slots (plus its overflow) must match its pending counter, every pool
// node must be chained or free, and schedule/process totals must account
// for every event exactly once — a wheel that drops or
// duplicates a wakeup produces a deadlocked or double-completed instruction
// far downstream of the actual bug.
#include <sstream>

#include "sim/smt_sim.hpp"
#include "verify/checks/checks.hpp"

namespace tlrob {

void check_pool(const SmtCore& core, Cycle cycle, InvariantChecker& out) {
  const IssueQueue& iq = core.issue_queue();
  const u32 num_threads = core.config().num_threads;
  for (u32 i = 0; i < iq.capacity(); ++i) {
    const DynInst* d = iq.slot(i);
    if (d == nullptr) continue;
    if (d->tid >= num_threads || !core.rob(d->tid).owns(d)) {
      std::ostringstream os;
      os << "IQ slot " << i << " points outside every live ROB slab window";
      out.violation(cycle, d->tid < num_threads ? d->tid : kNoThread, "pool.liveness",
                    os.str());
    }
  }
  for (ThreadId t = 0; t < num_threads; ++t) {
    const ReorderBuffer& rob = core.rob(t);
    core.lsq(t).for_each([&](const DynInst& e) {
      if (!rob.owns(&e)) {
        std::ostringstream os;
        os << "LSQ entry tseq " << e.tseq << " points at a recycled or foreign ROB slot";
        out.violation(cycle, t, "pool.liveness", os.str());
      }
    });
  }
}

void check_event_wheel(const SmtCore& core, Cycle cycle, InvariantChecker& out) {
  const EventWheel& wheel = core.event_wheel();
  if (!wheel.audit_consistent()) {
    std::ostringstream os;
    os << "wheel accounting broken: pending=" << wheel.pending()
       << " scheduled=" << wheel.scheduled_total() << " processed=" << wheel.processed_total()
       << " (chain recount, occupancy bitmap, pool or overflow minimum disagrees — an event"
       << " was dropped, duplicated or hidden)";
    out.violation(cycle, kNoThread, "events.wheel", os.str());
  }
}

}  // namespace tlrob

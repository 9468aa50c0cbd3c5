// DynInst pool liveness (cheap) and event-wheel conservation (full).
//
// The in-flight windows live in fixed ring slabs (RingDeque) and every other
// structure — issue queue, LSQ — holds raw pointers into them. A commit,
// squash or un-dispatch that recycles a slot while some structure still
// points at it is the exact class of bug the ring design makes possible and
// a deque would have hidden behind allocator luck: the stale pointer keeps
// reading plausible (now someone else's) instruction state. PoolCheck proves
// after every audited cycle that each held pointer is a *live* slot of the
// owning thread's slab — neither foreign storage nor recycled.
//
// EventWheelCheck recounts the calendar wheel: the events physically chained
// in its slots (plus its overflow) must match its pending counter, every pool
// node must be chained or free, and schedule/process totals must account
// for every event exactly once — a wheel that drops or
// duplicates a wakeup produces a deadlocked or double-completed instruction
// far downstream of the actual bug.
#include <sstream>

#include "pipeline/issue_queue.hpp"
#include "pipeline/lsq.hpp"
#include "rob/rob.hpp"
#include "sim/event_wheel.hpp"
#include "verify/checks/checks.hpp"

namespace tlrob {
namespace {

class PoolCheck final : public InvariantCheck {
 public:
  Tier tier() const override { return Tier::kCheap; }

  void run(const AuditContext& ctx, InvariantChecker& out) const override {
    const IssueQueue& iq = *ctx.iq;
    for (u32 i = 0; i < iq.capacity(); ++i) {
      const DynInst* d = iq.slot(i);
      if (d == nullptr) continue;
      if (d->tid >= ctx.num_threads || !ctx.robs[d->tid]->owns(d)) {
        std::ostringstream os;
        os << "IQ slot " << i << " points outside every live ROB slab window";
        out.violation(ctx.cycle, d->tid < ctx.num_threads ? d->tid : kNoThread,
                      "pool.liveness", os.str());
      }
    }
    for (ThreadId t = 0; t < ctx.num_threads; ++t) {
      const ReorderBuffer& rob = *ctx.robs[t];
      ctx.lsqs[t]->for_each([&](const DynInst& e) {
        if (!rob.owns(&e)) {
          std::ostringstream os;
          os << "LSQ entry tseq " << e.tseq
             << " points at a recycled or foreign ROB slot";
          out.violation(ctx.cycle, t, "pool.liveness", os.str());
        }
      });
    }
  }
};

class EventWheelCheck final : public InvariantCheck {
 public:
  Tier tier() const override { return Tier::kFull; }

  void run(const AuditContext& ctx, InvariantChecker& out) const override {
    if (ctx.wheel == nullptr) return;  // context built without a core
    if (!ctx.wheel->audit_consistent()) {
      std::ostringstream os;
      os << "wheel accounting broken: pending=" << ctx.wheel->pending()
         << " scheduled=" << ctx.wheel->scheduled_total()
         << " processed=" << ctx.wheel->processed_total()
         << " (chain recount, occupancy bitmap, pool or overflow minimum disagrees — an event"
         << " was dropped, duplicated or hidden)";
      out.violation(ctx.cycle, kNoThread, "events.wheel", os.str());
    }
  }
};

}  // namespace

std::unique_ptr<InvariantCheck> make_pool_check() {
  return std::make_unique<PoolCheck>();
}

std::unique_ptr<InvariantCheck> make_event_wheel_check() {
  return std::make_unique<EventWheelCheck>();
}

}  // namespace tlrob

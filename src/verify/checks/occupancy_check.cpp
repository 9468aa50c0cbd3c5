// Shared-structure occupancy accounting (cheap + full tiers).
//
// DCRA classification, ICOUNT ordering and every dispatch gate read the
// issue queue's per-thread occupancy, the LSQ's free count and the rename
// unit's free lists. A slot leaked or double-freed in any of them does not
// crash — it quietly re-partitions the machine between threads, which is
// precisely the class of bug an IPC diff cannot localise.
//
// check_iq_counts (cheap) recounts the issue queue's slots against its
// counters every audited cycle. check_occupancy (full) does the expensive
// cross-structure work: IQ<->ROB and LSQ<->ROB pointer identity and the
// rename unit's register-conservation audit.
#include <sstream>
#include <vector>

#include "sim/smt_sim.hpp"
#include "verify/checks/checks.hpp"

namespace tlrob {
namespace {

void check_iq_rob(const SmtCore& core, Cycle cycle, InvariantChecker& out) {
  const IssueQueue& iq = core.issue_queue();
  const u32 num_threads = core.config().num_threads;
  // Forward: every occupied slot points at the live ROB entry of its
  // (tid, tseq) — not a stale pointer into a recycled deque node.
  for (u32 i = 0; i < iq.capacity(); ++i) {
    const DynInst* d = iq.slot(i);
    if (d == nullptr || d->tid >= num_threads) continue;
    if (core.rob(d->tid).find(d->tseq) != d) {
      std::ostringstream os;
      os << "slot " << i << " points at tseq " << d->tseq
         << " which is not (or no longer) that thread's ROB entry";
      out.violation(cycle, d->tid, "iq.rob_identity", os.str());
    }
  }
  // Backward: every window entry claiming a slot actually occupies it.
  for (ThreadId t = 0; t < num_threads; ++t) {
    u32 in_iq = 0;
    core.rob(t).for_each([&](const DynInst& d) {
      if (!d.in_iq) return;
      ++in_iq;
      if (d.iq_slot < 0 || static_cast<u32>(d.iq_slot) >= iq.capacity() ||
          iq.slot(static_cast<u32>(d.iq_slot)) != &d) {
        std::ostringstream os;
        os << "entry tseq " << d.tseq << " claims IQ slot " << d.iq_slot
           << " but does not occupy it";
        out.violation(cycle, t, "iq.rob_identity", os.str());
      }
    });
    if (in_iq != iq.occupancy(t)) {
      std::ostringstream os;
      os << in_iq << " window entries hold IQ slots, per-thread counter says "
         << iq.occupancy(t);
      out.violation(cycle, t, "iq.rob_identity", os.str());
    }
  }
}

void check_lsq(const SmtCore& core, Cycle cycle, ThreadId t, InvariantChecker& out) {
  const LoadStoreQueue& lsq = core.lsq(t);
  const ReorderBuffer& rob = core.rob(t);

  u32 allocated = 0;
  rob.for_each([&](const DynInst& d) {
    if (d.lsq_allocated) ++allocated;
    if (d.lsq_allocated && !d.is_mem()) {
      std::ostringstream os;
      os << "non-memory entry tseq " << d.tseq << " holds an LSQ slot";
      out.violation(cycle, t, "lsq.occupancy", os.str());
    }
  });
  if (allocated != lsq.occupancy()) {
    std::ostringstream os;
    os << allocated << " window entries are lsq_allocated, queue holds " << lsq.occupancy()
       << " (leak or double-free)";
    out.violation(cycle, t, "lsq.occupancy", os.str());
  }

  u64 prev_tseq = 0;
  lsq.for_each([&](const DynInst& e) {
    if (e.tseq <= prev_tseq) {
      std::ostringstream os;
      os << "entry tseq " << e.tseq << " out of program order after " << prev_tseq;
      out.violation(cycle, t, "lsq.occupancy", os.str());
    }
    prev_tseq = e.tseq;
    if (rob.find(e.tseq) != &e) {
      std::ostringstream os;
      os << "entry tseq " << e.tseq << " is not (or no longer) the live ROB entry";
      out.violation(cycle, t, "lsq.occupancy", os.str());
    }
  });
}

}  // namespace

void check_iq_counts(const SmtCore& core, Cycle cycle, InvariantChecker& out) {
  const IssueQueue& iq = core.issue_queue();
  const u32 num_threads = core.config().num_threads;
  u32 occupied = 0;
  // Scratch reused across audit points, one per host thread (campaign
  // workers audit concurrently): this check runs every audited cycle and
  // must not allocate on the clean path.
  thread_local std::vector<u32> per_thread;
  per_thread.assign(num_threads, 0);
  for (u32 i = 0; i < iq.capacity(); ++i) {
    const DynInst* d = iq.slot(i);
    if (d == nullptr) continue;
    ++occupied;
    if (d->tid < num_threads) ++per_thread[d->tid];
    if (!d->in_iq || d->iq_slot != static_cast<int>(i)) {
      std::ostringstream os;
      os << "slot " << i << " holds tseq " << d->tseq << " whose back-reference is (in_iq="
         << d->in_iq << ", iq_slot=" << d->iq_slot << ")";
      out.violation(cycle, d->tid, "iq.counts", os.str());
    }
  }
  if (occupied != iq.occupancy()) {
    std::ostringstream os;
    os << "free-count says " << iq.occupancy() << " occupied, slots hold " << occupied;
    out.violation(cycle, kNoThread, "iq.counts", os.str());
  }
  for (ThreadId t = 0; t < num_threads; ++t) {
    if (per_thread[t] != iq.occupancy(t)) {
      std::ostringstream os;
      os << "per-thread counter says " << iq.occupancy(t) << ", slots hold " << per_thread[t];
      out.violation(cycle, t, "iq.counts", os.str());
    }
  }
}

void check_occupancy(const SmtCore& core, Cycle cycle, InvariantChecker& out) {
  check_iq_rob(core, cycle, out);
  for (ThreadId t = 0; t < core.config().num_threads; ++t) check_lsq(core, cycle, t, out);
  for (const std::string& issue : core.rename_unit().audit_integrity())
    out.violation(cycle, kNoThread, "rename.accounting", issue);
}

}  // namespace tlrob

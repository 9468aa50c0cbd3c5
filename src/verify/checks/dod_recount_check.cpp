// DoD ground truth (full tier).
//
// Every allocation decision in the two-level schemes rests on the counted
// degree of dependence: the number of not-yet-executed instructions in the
// first-level window younger than the missing load
// (ReorderBuffer::count_unexecuted_younger). This check recomputes that
// number from architectural first principles — age defined by tseq, not by
// container position, oldest `base_capacity` younger instructions — for
// every outstanding correct-path L2 miss and compares. It also verifies the
// two inputs the counter depends on:
//
//   * the "result valid" bit (DynInst::executed) is consistent with
//     completion bookkeeping, and
//   * the per-thread outstanding-L1/L2 counters — which gate STALL/FLUSH
//     and DCRA classification — equal a recount of the counted-miss flags
//     in the window.
#include <algorithm>
#include <sstream>
#include <vector>

#include "sim/smt_sim.hpp"
#include "verify/checks/checks.hpp"

namespace tlrob {
namespace {

void check_count(Cycle cycle, ThreadId t, const ReorderBuffer& rob, const DynInst& load,
                 InvariantChecker& out) {
  const u32 window = rob.base_capacity();
  const u32 proxy = rob.count_unexecuted_younger(load.tseq, window);

  // Independent recount: order by architectural age (tseq), not by
  // container position, then count the unexecuted among the oldest
  // `window` younger instructions.
  std::vector<const DynInst*> younger;
  rob.for_each([&](const DynInst& d) {
    if (d.tseq > load.tseq) younger.push_back(&d);
  });
  std::sort(younger.begin(), younger.end(),
            [](const DynInst* a, const DynInst* b) { return a->tseq < b->tseq; });
  if (younger.size() > window) younger.resize(window);
  u32 truth = 0;
  for (const DynInst* d : younger)
    if (!d->executed) ++truth;

  if (proxy != truth) {
    std::ostringstream os;
    os << "DoD counter for load tseq " << load.tseq << " returned " << proxy
       << ", ground-truth recount is " << truth << " (" << younger.size()
       << " younger in window " << window << ")";
    out.violation(cycle, t, "dod.recount", os.str());
  }
}

}  // namespace

void check_dod_recount(const SmtCore& core, Cycle cycle, InvariantChecker& out) {
  for (ThreadId t = 0; t < core.config().num_threads; ++t) {
    const ReorderBuffer& rob = core.rob(t);
    u32 l1_counted = 0;
    u32 l2_counted = 0;

    rob.for_each([&](const DynInst& d) {
      if (d.l1_counted) ++l1_counted;
      if (d.l2_counted) ++l2_counted;
      if (d.executed && d.complete_cycle == kNeverCycle) {
        std::ostringstream os;
        os << "entry tseq " << d.tseq << " has the result-valid bit set but never completed "
           << "(the DoD counter would under-count it)";
        out.violation(cycle, t, "dod.execflag", os.str());
      }
      if (d.is_load() && d.is_l2_miss && !d.executed && !d.wrong_path)
        check_count(cycle, t, rob, d, out);
    });

    if (l1_counted != core.outstanding_l1(t) || l2_counted != core.outstanding_l2(t)) {
      std::ostringstream os;
      os << "outstanding counters (l1=" << core.outstanding_l1(t)
         << ", l2=" << core.outstanding_l2(t) << ") != window recount (l1=" << l1_counted
         << ", l2=" << l2_counted << ")";
      out.violation(cycle, t, "dod.outstanding", os.str());
    }
  }
}

}  // namespace tlrob

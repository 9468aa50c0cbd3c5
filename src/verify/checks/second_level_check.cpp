// Second-level partition ownership (cheap tier).
//
// The paper's central allocation contract (§4): the second-level ROB is
// granted "as an atomic unit to one thread at a time", and only because a
// counted-DoD-qualified L2 miss justifies it. The controller enforces this
// by construction today; this check keeps it true under every future policy
// change (leases, cooldowns, new schemes) by re-deriving it from live state
// at the end of each audited cycle:
//
//   * at most one thread holds extra capacity, and then the whole partition;
//   * a holder is the registered owner and has a justifying trigger load
//     that is a correct-path L2-missing load still waiting for its line;
//   * baseline grants nothing; kAdaptive grows private ROBs only (bounded
//     by adaptive_max_extra) and never touches the shared partition;
//   * each thread's allocation candidates name correct-path loads in its
//     window that have not executed, in ascending tseq order under R-ROB
//     and Relaxed — what lets the controller re-check only the candidates
//     at the ROB's head.
#include <sstream>
#include <string>

#include "sim/smt_sim.hpp"
#include "verify/checks/checks.hpp"

namespace tlrob {
namespace {

/// The holder's grant must still be justified: the trigger load registered
/// at allocation exists in its window and is an un-serviced correct-path
/// L2 miss. (After the fill, the controller revokes the grant in the same
/// cycle's policy tick, so at the audit point — end of tick — a granted
/// window without a live trigger is a leak.)
void check_trigger(const SmtCore& core, Cycle cycle, ThreadId t, InvariantChecker& out) {
  const TwoLevelRobController& ctrl = core.rob_controller();
  if (!ctrl.audit_has_trigger(t)) {
    out.violation(cycle, t, "rob2.trigger",
                  "extra capacity granted with no justifying miss registered");
    return;
  }
  const u64 tseq = ctrl.audit_trigger_tseq(t);
  const DynInst* load = core.rob(t).find(tseq);
  std::ostringstream os;
  if (load == nullptr) {
    os << "trigger load tseq " << tseq << " is no longer in the window";
  } else if (!load->is_load() || !load->is_l2_miss || load->wrong_path) {
    os << "trigger tseq " << tseq << " is not a correct-path L2-missing load";
  } else if (load->executed) {
    os << "trigger load tseq " << tseq
       << " already completed; the grant should have been revoked";
  } else {
    return;  // justified
  }
  out.violation(cycle, t, "rob2.trigger", os.str());
}

/// The controller's candidate list for `t`: each entry an outstanding
/// correct-path load of the window, sorted by tseq where re-checks are
/// head-gated. A candidate retires at its load's fill or squash, so one
/// behind the head can only defer.
void check_candidates(const SmtCore& core, Cycle cycle, ThreadId t, InvariantChecker& out) {
  const TwoLevelRobController& ctrl = core.rob_controller();
  u64 prev = 0;
  for (const TwoLevelRobController::Candidate& c : ctrl.audit_candidates(t)) {
    const DynInst* load = core.rob(t).find(c.tseq);
    const char* problem = nullptr;
    if (ctrl.head_gated() && c.tseq < prev) {
      problem = " is out of tseq order";
    } else if (load == nullptr) {
      problem = " is no longer in the window";
    } else if (!load->is_load() || load->wrong_path) {
      problem = " is not a correct-path load";
    } else if (load->executed) {
      problem = " already completed; its fill should have retired it";
    }
    prev = c.tseq;
    if (problem != nullptr)  // appends: GCC 12 -O3 misreads an operator+ chain (PR 105329)
      out.violation(cycle, t, "rob2.candidate",
                    std::string("candidate tseq ").append(std::to_string(c.tseq)).append(problem));
  }
}

}  // namespace

void check_second_level(const SmtCore& core, Cycle cycle, InvariantChecker& out) {
  const SecondLevelRob& second = core.second_level();
  const RobScheme scheme = core.config().rob.scheme;
  const u32 adaptive_max_extra = core.config().rob.adaptive_max_extra;

  if (!uses_second_level(scheme) && second.owner() != SecondLevelRob::kNoOwner) {
    std::ostringstream os;
    os << rob_scheme_name(scheme) << " scheme must never allocate the shared "
       << "partition, but thread " << second.owner() << " owns it";
    out.violation(cycle, second.owner(), "rob2.ownership", os.str());
  }

  u32 holders = 0;
  for (ThreadId t = 0; t < core.config().num_threads; ++t) {
    if (uses_second_level(scheme)) check_candidates(core, cycle, t, out);
    const u32 extra = core.rob(t).extra();
    if (extra == 0) continue;

    if (scheme == RobScheme::kBaseline) {
      std::ostringstream os;
      os << "baseline scheme granted " << extra << " extra entries";
      out.violation(cycle, t, "rob2.ownership", os.str());
      continue;
    }
    if (scheme == RobScheme::kAdaptive) {
      if (extra > adaptive_max_extra) {
        std::ostringstream os;
        os << "adaptive growth " << extra << " exceeds bound " << adaptive_max_extra;
        out.violation(cycle, t, "rob2.ownership", os.str());
      }
      continue;  // private growth: no shared-partition requirements
    }

    ++holders;
    if (!second.owned_by(t)) {
      std::ostringstream os;
      os << "holds " << extra << " extra entries but the partition owner is "
         << (second.owner() == SecondLevelRob::kNoOwner ? std::string("nobody")
                                                        : std::to_string(second.owner()));
      out.violation(cycle, t, "rob2.ownership", os.str());
      continue;
    }
    if (extra != second.entries()) {
      std::ostringstream os;
      os << "granted " << extra << " of " << second.entries()
         << " entries; the partition is allocated as an atomic unit";
      out.violation(cycle, t, "rob2.ownership", os.str());
    }
    check_trigger(core, cycle, t, out);
  }

  if (holders > 1) {
    std::ostringstream os;
    os << holders << " threads hold second-level capacity simultaneously";
    out.violation(cycle, kNoThread, "rob2.ownership", os.str());
  }
}

}  // namespace tlrob

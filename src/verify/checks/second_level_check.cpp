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
//     by adaptive_max_extra) and never touches the shared partition.
#include <sstream>

#include "rob/allocation_policy.hpp"
#include "rob/rob.hpp"
#include "rob/two_level_rob.hpp"
#include "verify/checks/checks.hpp"

namespace tlrob {
namespace {

class SecondLevelCheck final : public InvariantCheck {
 public:
  Tier tier() const override { return Tier::kCheap; }

  void run(const AuditContext& ctx, InvariantChecker& out) const override {
    const SecondLevelRob& second = *ctx.second;

    if (!uses_second_level(ctx.scheme) && second.owner() != SecondLevelRob::kNoOwner) {
      std::ostringstream os;
      os << rob_scheme_name(ctx.scheme) << " scheme must never allocate the shared "
         << "partition, but thread " << second.owner() << " owns it";
      out.violation(ctx.cycle, second.owner(), "rob2.ownership", os.str());
    }

    u32 holders = 0;
    for (ThreadId t = 0; t < ctx.num_threads; ++t) {
      const ReorderBuffer& rob = *ctx.robs[t];
      const u32 extra = rob.extra();
      if (extra == 0) continue;

      if (ctx.scheme == RobScheme::kBaseline) {
        std::ostringstream os;
        os << "baseline scheme granted " << extra << " extra entries";
        out.violation(ctx.cycle, t, "rob2.ownership", os.str());
        continue;
      }
      if (ctx.scheme == RobScheme::kAdaptive) {
        if (extra > ctx.adaptive_max_extra) {
          std::ostringstream os;
          os << "adaptive growth " << extra << " exceeds bound " << ctx.adaptive_max_extra;
          out.violation(ctx.cycle, t, "rob2.ownership", os.str());
        }
        continue;  // private growth: no shared-partition requirements
      }

      ++holders;
      if (!second.owned_by(t)) {
        std::ostringstream os;
        os << "holds " << extra << " extra entries but the partition owner is "
           << (second.owner() == SecondLevelRob::kNoOwner
                   ? std::string("nobody")
                   : std::to_string(second.owner()));
        out.violation(ctx.cycle, t, "rob2.ownership", os.str());
        continue;
      }
      if (extra != second.entries()) {
        std::ostringstream os;
        os << "granted " << extra << " of " << second.entries()
           << " entries; the partition is allocated as an atomic unit";
        out.violation(ctx.cycle, t, "rob2.ownership", os.str());
      }
      check_trigger(ctx, t, out);
    }

    if (holders > 1) {
      std::ostringstream os;
      os << holders << " threads hold second-level capacity simultaneously";
      out.violation(ctx.cycle, kNoThread, "rob2.ownership", os.str());
    }
  }

 private:
  /// The holder's grant must still be justified: the trigger load registered
  /// at allocation exists in its window and is an un-serviced correct-path
  /// L2 miss. (After the fill, the controller revokes the grant in the same
  /// cycle's policy tick, so at the audit point — end of tick — a granted
  /// window without a live trigger is a leak.)
  static void check_trigger(const AuditContext& ctx, ThreadId t, InvariantChecker& out) {
    const TwoLevelRobController& ctrl = *ctx.ctrl;
    if (!ctrl.audit_has_trigger(t)) {
      out.violation(ctx.cycle, t, "rob2.trigger",
                    "extra capacity granted with no justifying miss registered");
      return;
    }
    const u64 tseq = ctrl.audit_trigger_tseq(t);
    const DynInst* load = ctx.robs[t]->find(tseq);
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
    out.violation(ctx.cycle, t, "rob2.trigger", os.str());
  }
};

}  // namespace

std::unique_ptr<InvariantCheck> make_second_level_check() {
  return std::make_unique<SecondLevelCheck>();
}

}  // namespace tlrob

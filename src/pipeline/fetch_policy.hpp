// SMT fetch policies: round-robin, ICOUNT, STALL, FLUSH, and DCRA-gated
// ICOUNT (the paper's baseline).
//
// A policy is a FetchPolicyKind value the core reads where it acts: the
// thread ranking that orders dispatch and fetch each tick (fetch_order),
// the fetch gate on an outstanding L2 miss (gates_fetch_on_l2_miss), FLUSH's
// un-dispatch when that miss is detected, and DCRA's register guard at
// dispatch (dcra_within_reg_guard). See DESIGN.md §2.2.
#pragma once

#include <string>
#include <vector>

#include "common/names.hpp"
#include "common/types.hpp"

namespace tlrob {

enum class FetchPolicyKind : u8 { kRoundRobin, kIcount, kStall, kFlush, kDcra };

/// The policy= vocabulary; "rr" is an alias.
inline constexpr EnumName<FetchPolicyKind> kFetchPolicyNames[] = {
    {FetchPolicyKind::kDcra, "dcra"},   {FetchPolicyKind::kIcount, "icount"},
    {FetchPolicyKind::kStall, "stall"}, {FetchPolicyKind::kFlush, "flush"},
    {FetchPolicyKind::kRoundRobin, "round_robin"}, {FetchPolicyKind::kRoundRobin, "rr"}};

inline const char* fetch_policy_name(FetchPolicyKind kind) {
  return enum_row(kFetchPolicyNames, kind).name;
}

inline FetchPolicyKind parse_fetch_policy(const std::string& name) {
  return parse_enum(kFetchPolicyNames, name, "fetch policy");
}

/// Fills `out` with thread ids highest-priority first. `icount[t]` is thread
/// t's ICOUNT key: its instructions fetched but not yet dispatched plus its
/// issue-queue entries. Round-robin rotates by `now`; every other policy
/// ranks by ICOUNT, fewest first, ties by thread id. `out` keeps its
/// capacity, so the per-tick ranking allocates nothing.
void fetch_order(FetchPolicyKind kind, const std::vector<u32>& icount, Cycle now,
                 std::vector<ThreadId>& out);

/// STALL and FLUSH stop fetching for a thread while it has an L2 miss
/// outstanding; FLUSH also un-dispatches the thread's instructions younger
/// than the load when the miss is detected.
inline bool gates_fetch_on_l2_miss(FetchPolicyKind kind) {
  return kind == FetchPolicyKind::kStall || kind == FetchPolicyKind::kFlush;
}

/// DCRA (Cazorla et al., MICRO 2004), in the loose form DESIGN.md §5 item 2
/// argues for: ICOUNT-ordered fetch plus this guard at dispatch. True while
/// the thread's use of each renameable register pool is below seven eighths
/// of the pool, so no single thread renames its whole free pool outright.
/// Neither the issue queue nor the register file is hard-capped: a thread
/// blocked on an L2 miss keeps its dispatched dependents and renamed
/// registers, which is exactly the residual pressure the paper observes DCRA
/// cannot remove (Baseline_128 degrades *under DCRA*, §1/§5.2). A zero
/// capacity leaves that pool unguarded.
inline bool dcra_within_reg_guard(u32 int_use, u32 int_capacity, u32 fp_use, u32 fp_capacity) {
  return (int_capacity == 0 || int_use < int_capacity - int_capacity / 8) &&
         (fp_capacity == 0 || fp_use < fp_capacity - fp_capacity / 8);
}

}  // namespace tlrob

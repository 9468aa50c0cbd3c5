// DCRA-style resource allocation (Cazorla et al., MICRO 2004) — the paper's
// baseline resource-distribution mechanism, in the loose form DESIGN.md §5
// item 2 argues for.
//
// The original proposal classifies threads as fast or slow and caps each
// thread's share of the shared issue queue and register files. Ours orders
// fetch by ICOUNT (FetchPolicyKind::kDcra) and does not hard-cap a stalled
// thread's issue-queue occupancy: its already-dispatched dependents stay in
// the queue whatever the fetch policy does, so IQ clog scales with window
// size — the paper's premise. What is left at dispatch is a loose register
// guard (dcra_within_reg_guard), so no single thread renames its whole free
// pool outright.
#pragma once

#include "common/types.hpp"

namespace tlrob {

/// True while the thread's use of each renameable register pool is below
/// seven eighths of the pool. Register-file occupancy is not hard-capped: a
/// thread blocked on an L2 miss keeps its renamed registers whatever the
/// fetch gating, which is exactly the residual pressure the paper observes
/// DCRA cannot remove (Baseline_128 degrades *under DCRA*, §1/§5.2). A zero
/// capacity leaves that pool unguarded.
inline bool dcra_within_reg_guard(u32 int_use, u32 int_capacity, u32 fp_use, u32 fp_capacity) {
  return (int_capacity == 0 || int_use < int_capacity - int_capacity / 8) &&
         (fp_capacity == 0 || fp_use < fp_capacity - fp_capacity / 8);
}

}  // namespace tlrob

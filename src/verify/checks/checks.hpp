// The standard invariant-check set: one free function per check, each in a
// translation unit under src/verify/checks/, and kStandardChecks, the one
// table that gives each its tier. Every check reads the core it audits
// through SmtCore's const accessors and reports through the checker.
#pragma once

#include "verify/invariant_checker.hpp"

namespace tlrob {

/// ROB structural integrity: per-thread windows age-ordered with the head
/// oldest, entries owned by the right thread and dispatched, occupancy
/// within the granted capacity, head older than nothing already committed.
void check_rob_order(const SmtCore& core, Cycle cycle, InvariantChecker& out);

/// Second-level partition ownership: the shared partition is held by at
/// most one thread; extra capacity is granted only to the owner, only whole
/// (the paper's atomic-unit allocation), and only while the justifying
/// L2-missing load is still outstanding. Scheme-aware: baseline grants
/// nothing, kAdaptive grows private ROBs without touching the shared
/// partition.
void check_second_level(const SmtCore& core, Cycle cycle, InvariantChecker& out);

/// Shared-structure occupancy counts: the issue queue's free count and
/// per-thread occupancy equal a recount of its slots (DCRA and ICOUNT steer
/// fetch off these numbers — a leak silently rebalances every policy).
void check_iq_counts(const SmtCore& core, Cycle cycle, InvariantChecker& out);

/// Cross-structure identity: every in_iq ROB entry occupies exactly its
/// recorded IQ slot and vice versa; each LSQ entry points at the live ROB
/// entry of its (tid, tseq) and the queue is in program order with
/// occupancy equal to the window's lsq_allocated count; the rename unit's
/// free lists and per-thread use counters account for every renameable
/// physical register exactly once (no leak, no double-free).
void check_occupancy(const SmtCore& core, Cycle cycle, InvariantChecker& out);

/// DoD ground truth: the paper's counted DoD
/// (ReorderBuffer::count_unexecuted_younger) equals an independent recount
/// over the window for every outstanding L2-missing load; the executed bit
/// the counter scans is consistent with completion bookkeeping; the
/// per-thread outstanding-L1/L2 counters equal the number of counted misses
/// in the window.
void check_dod_recount(const SmtCore& core, Cycle cycle, InvariantChecker& out);

/// DynInst pool liveness: every pointer the issue queue and LSQs hold
/// addresses a live slot of the owning thread's ROB ring slab — never
/// recycled storage (the failure mode fixed slabs make possible and heap
/// allocation hid behind allocator luck).
void check_pool(const SmtCore& core, Cycle cycle, InvariantChecker& out);

/// Event-wheel conservation: the calendar wheel's pending counter equals a
/// physical recount of its slots and the schedule/process totals account
/// for every event exactly once (no dropped or duplicated wakeups).
void check_event_wheel(const SmtCore& core, Cycle cycle, InvariantChecker& out);

/// Shared LLC/DRAM backend consistency (no-op without a backend): the MSHR
/// pool occupancy stays within its bound and the DRAM bank/row bookkeeping
/// accounts for every request exactly once (SharedMemory::audit_check).
void check_shared_memory(const SmtCore& core, Cycle cycle, InvariantChecker& out);

/// Every standard check with its tier, in the order a tier runs them.
inline constexpr AuditCheck kStandardChecks[] = {
    {AuditTier::kCheap, check_rob_order},
    {AuditTier::kCheap, check_second_level},
    {AuditTier::kCheap, check_iq_counts},
    {AuditTier::kFull, check_occupancy},
    {AuditTier::kFull, check_dod_recount},
    {AuditTier::kCheap, check_pool},
    {AuditTier::kFull, check_event_wheel},
    {AuditTier::kCheap, check_shared_memory},
};

}  // namespace tlrob

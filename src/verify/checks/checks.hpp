// Factories for the standard invariant-check set. Each lives in its own
// translation unit under src/verify/checks/.
#pragma once

#include <memory>

#include "verify/invariant_checker.hpp"

namespace tlrob {

/// ROB structural integrity (cheap): per-thread windows age-ordered with the
/// head oldest, entries owned by the right thread and dispatched, occupancy
/// within the granted capacity, head older than nothing already committed.
std::unique_ptr<InvariantCheck> make_rob_order_check();

/// Second-level partition ownership (cheap): the shared partition is held by
/// at most one thread; extra capacity is granted only to the owner, only
/// whole (the paper's atomic-unit allocation), and only while the justifying
/// L2-missing load is still outstanding. Scheme-aware: baseline grants
/// nothing, kAdaptive grows private ROBs without touching the shared
/// partition.
std::unique_ptr<InvariantCheck> make_second_level_check();

/// Shared-structure occupancy counts (cheap): the issue queue's free count
/// and per-thread occupancy equal a recount of its slots (DCRA and ICOUNT
/// steer fetch off these numbers — a leak silently rebalances every
/// policy).
std::unique_ptr<InvariantCheck> make_iq_counts_check();

/// Cross-structure identity (full): every in_iq ROB entry occupies exactly
/// its recorded IQ slot and vice versa; each LSQ entry points at the live
/// ROB entry of its (tid, tseq) and the queue is in program order with
/// occupancy equal to the window's lsq_allocated count; the rename unit's
/// free lists and per-thread use counters account for every renameable
/// physical register exactly once (no leak, no double-free).
std::unique_ptr<InvariantCheck> make_occupancy_check();

/// DoD ground truth (full): the paper's counted DoD
/// (ReorderBuffer::count_unexecuted_younger) equals an independent recount
/// over the window for every outstanding L2-missing load; the executed bit
/// the counter scans is consistent with completion bookkeeping; the
/// per-thread outstanding-L1/L2 counters equal the number of counted misses
/// in the window.
std::unique_ptr<InvariantCheck> make_dod_recount_check();

/// DynInst pool liveness (cheap): every pointer the issue queue and LSQs
/// hold addresses a live slot of the owning thread's ROB ring slab — never
/// recycled storage (the failure mode fixed slabs make possible and heap
/// allocation hid behind allocator luck).
std::unique_ptr<InvariantCheck> make_pool_check();

/// Event-wheel conservation (full): the calendar wheel's pending counter
/// equals a physical recount of its slots and the schedule/process totals
/// account for every event exactly once (no dropped or duplicated wakeups).
std::unique_ptr<InvariantCheck> make_event_wheel_check();

/// Shared LLC/DRAM backend consistency (cheap; no-op without a backend):
/// the MSHR pool occupancy stays within its bound and the DRAM bank/row
/// bookkeeping accounts for every request exactly once
/// (SharedMemory::audit_check).
std::unique_ptr<InvariantCheck> make_shared_memory_check();

}  // namespace tlrob

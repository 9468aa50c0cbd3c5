// Shared out-of-order issue queue (Table 1: 64 entries shared by all
// threads).
//
// The queue is a slot container with per-thread occupancy accounting (DCRA
// and ICOUNT read it). Scheduling policy — oldest-first among ready — lives
// in the core's issue stage; speculative-wakeup replay support lives here:
// instructions issued on a speculatively-ready source keep their slot until
// the speculation confirms, and are re-armed if it does not.
//
// The per-cycle candidate scan is the core's hottest loop, so the queue
// keeps occupancy and scan-set bitmaps plus a dense mirror of the
// source registers each entry's wakeup check must see ready: the scan walks
// bitmap words and one flat array instead of dereferencing DynInsts
// scattered across the per-thread ROB slabs. The slot a given insert takes
// (always the lowest free one) and the scan's selection order (ascending
// slot index) are unchanged from the pointer-walk implementation — both are
// part of the machine's deterministic fingerprint.
#pragma once

#include <bit>
#include <vector>

#include "pipeline/dyn_inst.hpp"

namespace tlrob {

class IssueQueue {
 public:
  IssueQueue(u32 entries, u32 num_threads);

  bool has_free() const { return free_ > 0; }
  u32 capacity() const { return static_cast<u32>(slots_.size()); }
  u32 occupancy() const { return capacity() - free_; }
  u32 occupancy(ThreadId t) const { return per_thread_[t]; }

  /// Inserts a dispatched instruction; requires has_free().
  void insert(DynInst* di);

  /// Releases the instruction's slot (issue confirmation or squash).
  void remove(DynInst* di);

  /// The issue stage confirmed `di` issued; a speculatively-issued entry
  /// keeps its slot but leaves the candidate-scan set until re-armed.
  void mark_issued(const DynInst* di) {
    if (di->in_iq) bm_clear(scan_, static_cast<u32>(di->iq_slot));
  }

  /// Replay re-armed `di` (issued flag cleared): back into the scan set.
  void mark_unissued(const DynInst* di) {
    if (di->in_iq) bm_set(scan_, static_cast<u32>(di->iq_slot));
  }

  /// Slot contents by index (nullptr = free); the invariant-audit checks
  /// recount occupancy from these.
  const DynInst* slot(u32 i) const { return slots_[i]; }

  /// Test-only corruption hook for the invariant-audit suite: skews the
  /// free-slot counter without touching the slots, simulating a leaked or
  /// double-freed entry. Never called by the simulator.
  void test_only_corrupt_free(i32 delta) { free_ = static_cast<u32>(free_ + delta); }

  /// Collects occupied entries matching a predicate into a caller-owned
  /// scratch buffer (cleared first; capacity is retained across calls, so a
  /// reused buffer makes the scan allocation-free). Selection order is slot
  /// order — ascending slot index, i.e. the order entries were placed by
  /// insert(), which always takes the lowest free slot. Callers needing age
  /// order sort the result by seq themselves.
  template <typename Pred>
  void collect_into(std::vector<DynInst*>& out, Pred&& pred) {
    out.clear();
    for (DynInst* di : slots_)
      if (di != nullptr && pred(*di)) out.push_back(di);
  }

  /// Source classification for the candidate scan, from the rename
  /// scoreboard's point of view at the current cycle.
  enum class SrcState : u8 {
    kReady,      // value available (or speculatively matured) now
    kWaitTime,   // speculative wakeup pending: matures with time alone
    kWaitEvent,  // plain not-ready: becomes ready only via a set_ready /
                 // set_spec_ready call — safe to park on
  };

  /// The issue stage's candidate scan: collects, in ascending slot order,
  /// every not-yet-issued entry whose mirrored wakeup sources all classify
  /// kReady. A store's address source is pre-substituted at insert (data is
  /// only needed at commit), so the scan itself is shape-blind.
  ///
  /// Entries whose first blocking source is kWaitEvent are parked on that
  /// register and leave the scan set until wake_waiters(reg) — the caller
  /// must invoke it on every readiness transition of a destination register
  /// (set_ready and set_spec_ready). Since a kWaitEvent source can become
  /// ready through no other path, a parked entry can never be a candidate
  /// before its wake, and the per-cycle candidate set is identical to a
  /// full rescan's. kWaitTime sources mature silently, so those entries
  /// stay in the scan set.
  template <typename ClassifyFn>
  void collect_issue_candidates(std::vector<DynInst*>& out, ClassifyFn&& classify) {
    out.clear();
    for (u32 w = 0; w < scan_.size(); ++w) {
      u64 bits = scan_[w];
      while (bits != 0) {
        const u32 i = (w << 6) + static_cast<u32>(std::countr_zero(bits));
        bits &= bits - 1;
        const PhysReg a = chk_src_[2 * i];
        const PhysReg b = chk_src_[2 * i + 1];
        if (a != kInvalidPhysReg) {
          const SrcState s = classify(a);
          if (s == SrcState::kWaitEvent) {
            park(i, a);
            continue;
          }
          if (s == SrcState::kWaitTime) continue;
        }
        if (b != kInvalidPhysReg) {
          const SrcState s = classify(b);
          if (s == SrcState::kWaitEvent) {
            park(i, b);
            continue;
          }
          if (s == SrcState::kWaitTime) continue;
        }
        out.push_back(slots_[i]);
      }
    }
  }

  /// Register `r` transitioned towards ready: put its parked waiters back
  /// into the scan set. Cheap no-op when nothing is parked on it.
  void wake_waiters(PhysReg r);

 private:
  static constexpr u32 kNoSlot = ~0u;

  static void bm_set(std::vector<u64>& bm, u32 i) { bm[i >> 6] |= 1ULL << (i & 63); }
  static void bm_clear(std::vector<u64>& bm, u32 i) { bm[i >> 6] &= ~(1ULL << (i & 63)); }

  void park(u32 slot, PhysReg r);
  void unpark(u32 slot);

  std::vector<DynInst*> slots_;
  std::vector<u64> live_;        // bit per slot: occupied
  std::vector<u64> scan_;        // bit per slot: unissued and not parked
  std::vector<PhysReg> chk_src_; // [2*slot + k]: wakeup sources to check
  // Parking: intrusive doubly-linked chains headed per register (grown on
  // demand). A slot is on a chain exactly while park_reg_ names a register:
  // remove() unlinks a parked slot at once, so a reused slot can park on its
  // new register in the next scan, and wake_waiters() drains only live
  // waiters.
  std::vector<u32> park_head_;   // [reg] -> first parked slot or kNoSlot
  std::vector<u32> park_next_;   // [slot] -> next slot on its chain or kNoSlot
  std::vector<u32> park_prev_;   // [slot] -> previous slot on its chain or kNoSlot
  std::vector<PhysReg> park_reg_;  // [slot] -> register parked on, or invalid
  std::vector<u32> per_thread_;
  u64 last_word_mask_;           // valid bits of the final bitmap word
  u32 free_;
};

}  // namespace tlrob

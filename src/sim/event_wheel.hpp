// Calendar wheel of scheduled pipeline events.
//
// The core's completion events (functional-unit done, load fill, L2-miss
// detection, replay, speculative-wakeup maturation) were previously held in
// a std::priority_queue: every push/pop paid a heap reshuffle plus the
// backing vector's growth, and finding "when is the next event" meant
// nothing cheaper than popping. This wheel keeps one pre-sized FIFO slot per
// cycle in a power-of-two horizon plus one occupancy bit per slot (a u64 per
// 64 slots, scanned with countr_zero as the issue queue does): scheduling is
// an O(1) append, the common tick drains one slot behind a one-bit test,
// and both process_due() and next_event_or() — what the idle-cycle
// fast-forward needs — jump straight to the next occupied slot. Slot
// vectors keep their capacity across reuse, so steady state allocates
// nothing.
//
// Processing order is identical to the old priority queue: ascending cycle,
// FIFO (schedule order) within a cycle. Events beyond the horizon overflow
// to a side vector. Contended LLC/DRAM latency chains do put events there,
// so overflowed_total() counts them (`simulate profile=1` prints the sum over
// the cores). The vector is appended in schedule
// order and tracks its earliest cycle (overflow_min_); once that cycle draws
// within a horizon of the cursor, the due events migrate into their slots in
// place, still in schedule order. Migration runs before any direct push or
// drain that could observe the slot, preserving the global FIFO tie-break,
// and a drain that jumps past the whole horizon lands on the overflow
// minimum, so no jump strands an overflow event.
#pragma once

#include <algorithm>
#include <bit>
#include <vector>

#include "common/types.hpp"
#include "pipeline/dyn_inst.hpp"

namespace tlrob {

enum class EvKind : u8 {
  kFuComplete,
  kLoadFill,
  kL2MissDetect,
  kLoadReplay,
  /// No-op marker: a register was made speculatively ready at this cycle
  /// (RenameUnit::set_spec_ready). Nothing is dispatched on it — it exists
  /// so the fast-forward's "next interesting cycle" computation sees the
  /// wakeup and never skips past the cycle where a dependent could issue.
  kWake,
};

/// One scheduled event. Events of one cycle fire in schedule order, which
/// is the order they sit in their slot (or in the overflow vector), so no
/// sequence number is stored.
struct SimEvent {
  Cycle when = 0;
  InstRef ref;
  EvKind kind = EvKind::kFuComplete;
};
static_assert(sizeof(SimEvent) == 32);

class EventWheel {
 public:
  explicit EventWheel(u32 horizon_log2 = 12)
      : slots_(1u << horizon_log2),
        occupied_(std::max(1u, (1u << horizon_log2) / 64), 0),
        mask_((1u << horizon_log2) - 1),
        word_bits_(std::min(64u, 1u << horizon_log2)) {}

  u32 horizon() const { return mask_ + 1; }
  u64 pending() const { return pending_; }
  u64 scheduled_total() const { return scheduled_; }
  u64 processed_total() const { return processed_; }
  /// Events scheduled a horizon or more ahead of the cursor (each took the
  /// overflow path once).
  u64 overflowed_total() const { return overflowed_; }
  /// First cycle the wheel has fully drained through (all events at cycles
  /// below this have been handed out).
  Cycle drained_until() const { return cursor_; }

  void schedule(Cycle when, EvKind kind, const InstRef& ref) {
    // An event scheduled for the current (already-drained) cycle fires at
    // the next process_due, exactly as it did leaving the priority queue.
    if (when < cursor_) when = cursor_;
    const SimEvent ev{when, ref, kind};
    if (when - cursor_ < horizon()) {
      // Any overflow event that has drifted within the horizon is older
      // than this one and must land in its slot first, or the FIFO
      // tie-break within its cycle would invert.
      if (overflow_min_ < cursor_ + horizon()) migrate_overflow();
      push_slot(ev);
    } else {
      overflow_.push_back(ev);
      overflow_min_ = std::min(overflow_min_, when);
      ++overflowed_;
    }
    ++pending_;
    ++scheduled_;
  }

  /// Drains every event with when <= now, ascending cycle then schedule
  /// order, invoking handler(const SimEvent&). The handler may schedule new
  /// events (they land at cycles >= the one being drained).
  template <typename Handler>
  void process_due(Cycle now, Handler&& handler) {
    while (cursor_ <= now) {
      Cycle c = cursor_;
      if (c == now && overflow_min_ - c >= horizon()) {
        // Common tick: the cursor is at `now` and no overflow event is
        // inside the horizon, so at most this one slot is due.
        if (!bit_set(c)) {
          ++cursor_;
          return;
        }
      } else {
        c = next_due(now);
        if (c == kNeverCycle) return;
      }
      drain_slot(c, handler);
    }
  }

  /// Next cycle >= drained_until() holding an event, or `none` if the wheel
  /// is empty: the first occupied slot, or the earliest overflow event if
  /// that comes first. Cost is one bitmap word per 64 cycles skipped.
  Cycle next_event_or(Cycle none) const {
    if (pending_ == 0) return none;
    const Cycle last = std::min(cursor_ + horizon() - 1, overflow_min_);
    return std::min(first_occupied(cursor_, last), overflow_min_);
  }

  /// Test-only corruption hooks for the invariant-audit suite: skew the
  /// pending counter without touching the slots (a dropped or duplicated
  /// event), or flip the occupancy bit of `when`'s slot (a stale bitmap).
  /// Never called by the simulator.
  void test_only_corrupt_pending(i64 delta) {
    pending_ = static_cast<u64>(static_cast<i64>(pending_) + delta);
  }
  void test_only_flip_occupancy(Cycle when) { occupied_[word_of(when)] ^= bit_of(when); }

  /// Audit recount: the pending counter must equal the events actually
  /// sitting in slots + overflow, the schedule/process totals must account
  /// for every event exactly once (no drop, no duplicate), every occupancy
  /// bit must equal "slot non-empty", and overflow_min_ must be the overflow
  /// minimum and not behind the cursor.
  bool audit_consistent() const {
    u64 live = overflow_.size();
    for (const auto& slot : slots_) live += slot.size();
    if (live != pending_ || scheduled_ != processed_ + pending_) return false;
    for (u32 i = 0; i < horizon(); ++i)
      if (bit_set(i) != !slots_[i].empty()) return false;
    Cycle min = kNeverCycle;
    for (const SimEvent& ev : overflow_) min = std::min(min, ev.when);
    return overflow_min_ == min && (overflow_.empty() || overflow_min_ >= cursor_);
  }

 private:
  u32 word_of(Cycle c) const { return static_cast<u32>(c & mask_) >> 6; }
  u64 bit_of(Cycle c) const { return u64{1} << ((c & mask_) & 63); }
  bool bit_set(Cycle c) const { return (occupied_[word_of(c)] & bit_of(c)) != 0; }

  void push_slot(const SimEvent& ev) {
    slots_[ev.when & mask_].push_back(ev);
    occupied_[word_of(ev.when)] |= bit_of(ev.when);
  }

  /// Drains slot `c` (occupied, at the cursor) and moves the cursor past it.
  template <typename Handler>
  void drain_slot(Cycle c, Handler& handler) {
    std::vector<SimEvent>& slot = slots_[c & mask_];
    for (u32 i = 0; i < slot.size(); ++i) {  // index loop: handler may push
      const SimEvent ev = slot[i];  // by value: a same-cycle push may grow
                                    // (and reallocate) this very slot
      ++processed_;
      --pending_;
      handler(ev);
    }
    slot.clear();  // keeps capacity: steady state never reallocates
    occupied_[word_of(c)] &= ~bit_of(c);
    cursor_ = c + 1;
  }

  /// Moves the cursor to the first occupied cycle <= now and returns it, or
  /// to now + 1 and returns kNeverCycle. Migrates overflow events as they
  /// come inside the horizon; an empty horizon jumps the cursor straight to
  /// the earliest overflow cycle, so no jump strands an overflow event.
  Cycle next_due(Cycle now) {
    while (cursor_ <= now) {
      if (overflow_min_ < cursor_ + horizon()) migrate_overflow();
      const Cycle next = first_occupied(cursor_, std::min(now, cursor_ + horizon() - 1));
      if (next != kNeverCycle) {
        cursor_ = next;
        return next;
      }
      cursor_ = std::min(now + 1, overflow_min_);
    }
    return kNeverCycle;
  }

  /// First occupied cycle in [from, last], or kNeverCycle; last - from must
  /// be below the horizon. Steps a word at a time: from a cycle at bit b of
  /// its word, the next word starts word_bits_ - b cycles later (the wheel
  /// wraps to word 0 after the last one).
  Cycle first_occupied(Cycle from, Cycle last) const {
    for (Cycle c = from; c <= last;) {
      const u32 b = static_cast<u32>(c & mask_) & 63;
      const u64 bits = occupied_[word_of(c)] >> b;
      if (bits != 0) {
        const Cycle hit = c + static_cast<u32>(std::countr_zero(bits));
        return hit <= last ? hit : kNeverCycle;
      }
      c += word_bits_ - b;
    }
    return kNeverCycle;
  }

  void migrate_overflow() {
    // Compacts in place: events now inside the horizon move to their slots
    // in vector order, which is schedule order (appends are, and compaction
    // keeps it), so the FIFO tie-break within a cycle holds.
    const Cycle end = cursor_ + horizon();
    Cycle far_min = kNeverCycle;
    size_t kept = 0;
    for (const SimEvent& ev : overflow_) {
      if (ev.when < end) {
        push_slot(ev);
      } else {
        far_min = std::min(far_min, ev.when);
        overflow_[kept++] = ev;
      }
    }
    overflow_.resize(kept);
    overflow_min_ = far_min;
  }

  std::vector<std::vector<SimEvent>> slots_;
  std::vector<u64> occupied_;  // bit (c & mask_) set iff slot c is non-empty
  std::vector<SimEvent> overflow_;  // schedule order
  u32 mask_;
  u32 word_bits_;  // slots per occupancy word: min(64, horizon)
  Cycle cursor_ = 0;  // all cycles < cursor_ are drained
  Cycle overflow_min_ = kNeverCycle;  // earliest overflow_ cycle
  u64 pending_ = 0;
  u64 scheduled_ = 0;
  u64 processed_ = 0;
  u64 overflowed_ = 0;
};

}  // namespace tlrob

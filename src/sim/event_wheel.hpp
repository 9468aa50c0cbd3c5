// Calendar wheel of scheduled pipeline events.
//
// The core's completion events (functional-unit done, load fill, L2-miss
// detection, replay, speculative-wakeup maturation) were previously held in
// a std::priority_queue: every push/pop paid a heap reshuffle plus the
// backing vector's growth, and finding "when is the next event" meant
// nothing cheaper than popping. This wheel keeps one FIFO chain per cycle in
// a power-of-two horizon plus one occupancy bit per slot (a u64 per 64
// slots, scanned with countr_zero as the issue queue does): scheduling is an
// O(1) append, the common tick drains one slot behind a one-bit test, and
// both process_due() and next_event_or() — what the idle-cycle fast-forward
// needs — jump straight to the next occupied slot.
//
// Storage is one node pool per wheel. A slot holds the u32 head and tail
// indices of its chain; a node is a SimEvent plus its link (in the event's
// tail padding, so 32 bytes). schedule() pops a node off a free list and
// appends it to its slot's chain; a drain pops the chain's head, returns the
// node to the free list and then calls the handler, so a same-cycle
// schedule from the handler appends to the chain being drained and fires in
// the same pass. Every node in a chain is a pending event, so the pool never
// holds more nodes than the most events ever pending at once (pooled()) —
// tens per core, not horizon x per-slot peak — and once it has reached that
// peak, steady state allocates nothing.
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
/// is the order they sit in their slot's chain (or in the overflow vector),
/// so no sequence number is stored.
struct SimEvent {
  Cycle when = 0;
  InstRef ref;
  EvKind kind = EvKind::kFuComplete;
};
static_assert(sizeof(SimEvent) == 32);

class EventWheel {
 public:
  explicit EventWheel(u32 horizon_log2 = 12)
      : chains_(1u << horizon_log2),
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
  /// Nodes in the pool: never more than the most events pending at once.
  u32 pooled() const { return static_cast<u32>(pool_.size()); }
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
  /// sitting in chains + overflow, the schedule/process totals must account
  /// for every event exactly once (no drop, no duplicate), every occupancy
  /// bit must equal "chain non-empty", every chain must end at its tail and
  /// hold only its slot's cycles, every pool node must be chained or free
  /// (no leak), and overflow_min_ must be the overflow minimum and not
  /// behind the cursor.
  bool audit_consistent() const {
    const u64 nodes = pool_.size();
    u64 chained = 0;
    for (u32 i = 0; i < horizon(); ++i) {
      const Chain& ch = chains_[i];
      if (bit_set(i) != (ch.head != kNil)) return false;
      u32 last = kNil;
      for (u32 n = ch.head; n != kNil; n = pool_[n].next) {
        // A cycle in the links would outrun the pool: stop there.
        if (n >= nodes || ++chained > nodes || (pool_[n].when & mask_) != i) return false;
        last = n;
      }
      if (last != kNil && last != ch.tail) return false;
    }
    u64 free = 0;
    for (u32 n = free_; n != kNil; n = pool_[n].next)
      if (n >= nodes || ++free > nodes) return false;
    if (chained + free != nodes) return false;
    if (chained + overflow_.size() != pending_ || scheduled_ != processed_ + pending_)
      return false;
    Cycle min = kNeverCycle;
    for (const SimEvent& ev : overflow_) min = std::min(min, ev.when);
    return overflow_min_ == min && (overflow_.empty() || overflow_min_ >= cursor_);
  }

 private:
  static constexpr u32 kNil = ~0u;  // end of a chain or of the free list

  /// A pooled event: the SimEvent plus the index of the next node in its
  /// chain (or in the free list), which sits in the event's tail padding.
  struct Node : SimEvent {
    u32 next = kNil;
  };
  static_assert(sizeof(Node) == sizeof(SimEvent));

  /// One slot's FIFO chain of pool indices; head == kNil when empty (tail is
  /// then stale).
  struct Chain {
    u32 head = kNil;
    u32 tail = kNil;
  };

  u32 word_of(Cycle c) const { return static_cast<u32>(c & mask_) >> 6; }
  u64 bit_of(Cycle c) const { return u64{1} << ((c & mask_) & 63); }
  bool bit_set(Cycle c) const { return (occupied_[word_of(c)] & bit_of(c)) != 0; }

  void push_slot(const SimEvent& ev) {
    u32 n = free_;
    if (n == kNil) {
      n = static_cast<u32>(pool_.size());
      pool_.push_back(Node{ev});
    } else {
      free_ = pool_[n].next;
      pool_[n] = Node{ev};
    }
    Chain& ch = chains_[ev.when & mask_];
    if (ch.head == kNil) {
      ch.head = n;
    } else {
      pool_[ch.tail].next = n;
    }
    ch.tail = n;
    occupied_[word_of(ev.when)] |= bit_of(ev.when);
  }

  /// Drains slot `c` (occupied, at the cursor) and moves the cursor past it.
  template <typename Handler>
  void drain_slot(Cycle c, Handler& handler) {
    Chain& ch = chains_[c & mask_];
    while (ch.head != kNil) {  // re-read each pass: the handler may append
      const u32 n = ch.head;
      const SimEvent ev = pool_[n];  // by value: the handler may grow the pool
      ch.head = pool_[n].next;
      pool_[n].next = free_;  // freed before the call, so the handler's own
      free_ = n;              // schedule reuses it: pooled() <= peak pending
      ++processed_;
      --pending_;
      handler(ev);
    }
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

  std::vector<Chain> chains_;  // one per slot
  std::vector<Node> pool_;  // chained (pending) or free nodes
  u32 free_ = kNil;  // head of the free list, linked through Node::next
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

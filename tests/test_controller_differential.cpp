// Differential test of the allocation controller's re-check pass.
//
// TwoLevelRobController re-checks, wakes for and replays only an R-ROB or
// Relaxed thread's front candidate, the only one that can name its ROB's
// head, lets the others keep a stale point of their re-check grid, and
// keeps each thread's candidates in tseq order. The reference below is the
// pass it replaced: every due candidate of every thread is decided from the
// live window at every re-check, and it ticks every cycle of each span the
// production controller sleeps through and replays, where it must find
// nothing to do. Both run over mirrored ROBs and partitions driven by the
// same random stream of pushes, executions, pops, squashes, miss detections
// (in any tseq order), fills and idle spans, and must agree on everything
// the core can observe after every cycle; the production wake may only be
// later than the reference's.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "rob/allocation_policy.hpp"
#include "rob/rob.hpp"
#include "rob/two_level_rob.hpp"

namespace tlrob {
namespace {

/// The every-candidate controller (R-ROB, Relaxed and CDR only): the
/// re-check pass and idle decision as they stood before head-gating,
/// without the early-out that skipped passes nothing was due in.
class ReferenceController {
 public:
  ReferenceController(const RobPolicyConfig& cfg, std::vector<ReorderBuffer*> robs,
                      SecondLevelRob& second)
      : cfg_(cfg),
        robs_(std::move(robs)),
        second_(second),
        threads_(robs_.size()) {}

  void on_l2_miss_detected(DynInst& load, Cycle now) {
    ++stats_.l2_miss_candidates;
    const Cycle first_check = cfg_.scheme == RobScheme::kCdr ? now + cfg_.cdr_delay : now;
    threads_[load.tid].cands.push_back({load.tseq, first_check});
  }

  void on_load_fill(DynInst& load, Cycle now) {
    auto& cands = threads_[load.tid].cands;
    std::erase_if(cands, [&](const Candidate& c) { return c.tseq == load.tseq; });
    maybe_release(load.tid, now);
  }

  void on_squash(ThreadId tid, u64 tseq) {
    ThreadState& ts = threads_[tid];
    std::erase_if(ts.cands, [&](const Candidate& c) { return c.tseq > tseq; });
    if (ts.has_trigger && ts.trigger_tseq > tseq) ts.has_trigger = false;
  }

  bool tick(Cycle now) {
    bool activity = false;
    const u32 n = static_cast<u32>(threads_.size());
    for (u32 i = 0; i < n; ++i) {
      const ThreadId tid = static_cast<ThreadId>((now + i) % n);
      ThreadState& ts = threads_[tid];
      for (auto it = ts.cands.begin(); it != ts.cands.end();) {
        if (it->next_check <= now && evaluate(tid, *it, now)) {
          it = ts.cands.erase(it);
          activity = true;
        } else {
          ++it;
        }
      }
      if (maybe_release(tid, now)) activity = true;
    }
    return activity;
  }

  Cycle next_wake(Cycle now) {
    Cycle best = kNeverCycle;
    for (ThreadId tid = 0; tid < threads_.size(); ++tid)
      for (const Candidate& c : threads_[tid].cands) {
        const Outcome outcome = decide(tid, c.tseq, now);
        if (outcome == Outcome::kDrop || outcome == Outcome::kGrant) {
          best = std::min(best, c.next_check);
        } else if (const Cycle gate = gate_after(tid, now); gate != kNeverCycle) {
          best = std::min(best, grid_at_or_after(c, gate));
        }
      }
    return best;
  }

  const RobControllerStats& stats() const { return stats_; }
  bool has_pending_candidate(ThreadId tid) const { return !threads_[tid].cands.empty(); }
  std::vector<u64> candidate_tseqs(ThreadId tid) const {
    std::vector<u64> out;
    for (const Candidate& c : threads_[tid].cands) out.push_back(c.tseq);
    std::ranges::sort(out);
    return out;
  }
  bool has_trigger(ThreadId tid) const { return threads_[tid].has_trigger; }
  u64 trigger_tseq(ThreadId tid) const { return threads_[tid].trigger_tseq; }

 private:
  enum class Outcome : u8 { kDrop, kGrant, kDefer, kReject };
  struct Candidate {
    u64 tseq = 0;
    Cycle next_check = 0;
  };
  struct ThreadState {
    std::vector<Candidate> cands;
    u64 trigger_tseq = 0;
    bool has_trigger = false;
    Cycle cooldown_until = 0;
  };

  Outcome decide(ThreadId tid, u64 tseq, Cycle now) const {
    const ReorderBuffer& rob = *robs_[tid];
    const DynInst* load = rob.find(tseq);
    if (load == nullptr || load->executed) return Outcome::kDrop;
    const bool can_acquire_fresh = second_.available() && now >= threads_[tid].cooldown_until;
    const bool can_renew = second_.owned_by(tid) && !lease_expired(tid, now);
    if (!can_acquire_fresh && !can_renew) return Outcome::kDefer;
    bool conditions = true;
    if (cfg_.scheme == RobScheme::kReactive) {
      conditions = rob.head() == load && rob.first_level_full();
    } else if (cfg_.scheme == RobScheme::kRelaxedReactive) {
      conditions = rob.head() == load;
    }
    if (!conditions) return Outcome::kDefer;
    const u32 dod = rob.count_unexecuted_younger(tseq, rob.base_capacity());
    return dod < cfg_.dod_threshold ? Outcome::kGrant : Outcome::kReject;
  }

  bool evaluate(ThreadId tid, Candidate& c, Cycle now) {
    const Outcome outcome = decide(tid, c.tseq, now);
    if (outcome == Outcome::kDrop) return true;
    if (outcome == Outcome::kGrant) {
      acquire(tid, c.tseq, now);
      return true;
    }
    if (outcome == Outcome::kReject) ++stats_.rejected_high_dod;
    c.next_check = now + cfg_.recheck_interval;
    return false;
  }

  void acquire(ThreadId tid, u64 tseq, Cycle now) {
    if (second_.available()) {
      second_.allocate(tid, now);
      robs_[tid]->grant_extra(second_.entries());
    } else if (second_.owned_by(tid)) {
      robs_[tid]->grant_extra(second_.entries());
    }
    threads_[tid].trigger_tseq = tseq;
    threads_[tid].has_trigger = true;
    ++stats_.lease_grants_or_renewals;
  }

  bool maybe_release(ThreadId tid, Cycle now) {
    if (!second_.owned_by(tid)) return false;
    ThreadState& ts = threads_[tid];
    ReorderBuffer& rob = *robs_[tid];
    if (ts.has_trigger) {
      const DynInst* t = rob.find(ts.trigger_tseq);
      if (t != nullptr && !t->executed) return false;
    }
    const bool changed = rob.extra() != 0 || ts.has_trigger;
    rob.revoke_extra();
    ts.has_trigger = false;
    if (rob.size() > rob.base_capacity()) return changed;
    bool contended = false;
    for (u32 o = 0; o < threads_.size(); ++o)
      if (o != tid && !threads_[o].cands.empty()) contended = true;
    ts.cooldown_until = contended ? now + cfg_.lease_cooldown : now;
    second_.release(now);
    ++stats_.releases;
    return true;
  }

  bool lease_expired(ThreadId tid, Cycle now) const {
    return second_.owned_by(tid) && now >= second_.acquired_at() + cfg_.lease_limit;
  }

  Cycle gate_after(ThreadId tid, Cycle t) const {
    Cycle gate = kNeverCycle;
    if (threads_[tid].cooldown_until > t) gate = threads_[tid].cooldown_until;
    if (second_.owned_by(tid)) {
      const Cycle expiry = second_.acquired_at() + cfg_.lease_limit;
      if (expiry > t) gate = std::min(gate, expiry);
    }
    return gate;
  }

  Cycle grid_at_or_after(const Candidate& c, Cycle t) const {
    if (t <= c.next_check) return c.next_check;
    const Cycle steps = (t - c.next_check + cfg_.recheck_interval - 1) / cfg_.recheck_interval;
    return c.next_check + steps * cfg_.recheck_interval;
  }

  RobPolicyConfig cfg_;
  std::vector<ReorderBuffer*> robs_;
  SecondLevelRob& second_;
  std::vector<ThreadState> threads_;
  RobControllerStats stats_;
};

/// One machine's ROBs and partition; the test keeps two in lockstep.
struct Side {
  Side(u32 threads, u32 rob1, u32 rob2) : second(rob2, threads) {
    for (u32 t = 0; t < threads; ++t) robs.push_back(std::make_unique<ReorderBuffer>(rob1, rob2));
  }
  std::vector<ReorderBuffer*> rob_ptrs() const {
    std::vector<ReorderBuffer*> out;
    for (const auto& r : robs) out.push_back(r.get());
    return out;
  }
  std::vector<std::unique_ptr<ReorderBuffer>> robs;
  SecondLevelRob second;
};

/// The i-th window entry, oldest first.
DynInst& entry(ReorderBuffer& rob, u32 i) {
  DynInst* out = nullptr;
  u32 k = 0;
  rob.for_each([&](DynInst& d) {
    if (k++ == i) out = &d;
  });
  return *out;
}

class Differential {
 public:
  Differential(RobScheme scheme, u32 threads, u64 seed)
      : rng_(seed), cfg_(make_config(scheme)), prod_side_(threads, kRob1, kRob2),
        ref_side_(threads, kRob1, kRob2), prod_(cfg_, prod_side_.rob_ptrs(), prod_side_.second),
        ref_(cfg_, ref_side_.rob_ptrs(), ref_side_.second), next_tseq_(threads, 1),
        missing_(threads) {}

  /// Runs `cycles` cycles; returns false (after recording a test failure)
  /// at the first disagreement.
  bool run(Cycle cycles) {
    Cycle now = 1;
    while (now < cycles) {
      const bool mutated = mutate(now);
      const bool prod_active = prod_.tick(now);
      const bool ref_active = ref_.tick(now);
      if (!agree(now, "tick") || !expect_eq(prod_active, ref_active, now, "tick activity"))
        return false;
      const Cycle wake = prod_.next_wake(now);
      const Cycle ref_wake = ref_.next_wake(now);
      if (!expect_eq(wake >= ref_wake, true, now, "next_wake not before the reference's"))
        return false;
      if (mutated || prod_active || pick(2) == 0) {
        ++now;
        continue;
      }
      // The core is idle: sleep to its wake, or to an earlier one another
      // structure asked for, replaying the span in one or two pieces. The
      // reference ticks every cycle of it instead, and none may act.
      const Cycle limit = std::min(wake, now + 2 + pick(80));
      const Cycle to = now + 1 + pick(limit - now);
      if (const Cycle mid = now + 1 + pick(to - now); mid < to && pick(2) == 0)
        prod_.replay_idle_to(mid);
      prod_.replay_idle_to(to);
      for (Cycle t = now + 1; t < to; ++t)
        if (!expect_eq(ref_.tick(t), false, t, "reference activity in a replayed sleep"))
          return false;
      if (!agree(to, "replay_idle_to")) return false;
      now = to;
    }
    return true;
  }

  const RobControllerStats& stats() const { return prod_.stats(); }
  u64 grants() const { return prod_side_.second.total_grants(); }

 private:
  static constexpr u32 kRob1 = 8;
  static constexpr u32 kRob2 = 8;

  RobPolicyConfig make_config(RobScheme scheme) {
    RobPolicyConfig cfg;
    cfg.scheme = scheme;
    cfg.dod_threshold = pick(10);
    cfg.recheck_interval = 1 + pick(6);
    cfg.cdr_delay = pick(12);
    cfg.lease_limit = 5 + pick(60);
    cfg.lease_cooldown = pick(40);
    return cfg;
  }

  u64 pick(u64 n) { return std::uniform_int_distribution<u64>(0, n - 1)(rng_); }

  /// Applies one cycle's random events to both sides; true iff any landed.
  bool mutate(Cycle now) {
    bool mutated = false;
    const u32 events = static_cast<u32>(pick(4));
    for (u32 e = 0; e < events; ++e) {
      const ThreadId tid = static_cast<ThreadId>(pick(next_tseq_.size()));
      ReorderBuffer& rob = *prod_side_.robs[tid];
      ReorderBuffer& mirror = *ref_side_.robs[tid];
      switch (pick(10)) {
        case 0:
        case 1:
        case 2:  // dispatch
          if (!rob.full()) {
            DynInst d;
            d.tid = tid;
            d.tseq = d.seq = next_tseq_[tid]++;
            d.op = pick(2) == 0 ? OpClass::kLoad : OpClass::kIntAlu;
            d.executed = pick(4) == 0;
            DynInst copy = d;
            rob.push(std::move(d));
            mirror.push(std::move(copy));
            mutated = true;
          }
          break;
        case 3:  // an instruction that is not a registered miss executes
          if (!rob.empty()) {
            const u32 i = static_cast<u32>(pick(rob.size()));
            DynInst& d = entry(rob, i);
            if (!d.executed && !is_missing(tid, d.tseq)) {
              d.executed = entry(mirror, i).executed = true;
              mutated = true;
            }
          }
          break;
        case 4:  // commit
          if (!rob.empty() && rob.head()->executed) {
            rob.pop_head();
            mirror.pop_head();
            mutated = true;
          }
          break;
        case 5:  // squash a suffix, possibly the whole window
          if (!rob.empty() && pick(3) == 0) {
            const u64 after = rob.head()->tseq - 1 + pick(rob.size());
            rob.squash_after(after, [](DynInst&) {});
            mirror.squash_after(after, [](DynInst&) {});
            prod_.on_squash(tid, after);
            ref_.on_squash(tid, after);
            std::erase_if(missing_[tid], [&](u64 t) { return t > after; });
            mutated = true;
          }
          break;
        case 6:
        case 7:  // miss detection on any outstanding load, in any tseq order
          if (!rob.empty()) {
            const u32 i = pick(2) == 0 ? 0 : static_cast<u32>(pick(rob.size()));
            DynInst& d = entry(rob, i);
            const bool again = is_missing(tid, d.tseq);
            if (d.is_load() && !d.executed && (!again || pick(8) == 0)) {
              DynInst& m = entry(mirror, i);
              d.is_l2_miss = m.is_l2_miss = true;
              prod_.on_l2_miss_detected(d, now);
              ref_.on_l2_miss_detected(m, now);
              if (!again) missing_[tid].push_back(d.tseq);
              mutated = true;
            }
          }
          break;
        default:  // fill: notified before the result-valid bit is set
          if (!missing_[tid].empty()) {
            const size_t k = pick(missing_[tid].size());
            const u64 tseq = missing_[tid][k];
            missing_[tid].erase(missing_[tid].begin() + static_cast<std::ptrdiff_t>(k));
            DynInst& d = *rob.find(tseq);
            DynInst& m = *mirror.find(tseq);
            prod_.on_load_fill(d, now);
            ref_.on_load_fill(m, now);
            d.executed = m.executed = true;
            mutated = true;
          }
          break;
      }
    }
    return mutated;
  }

  bool is_missing(ThreadId tid, u64 tseq) const {
    return std::ranges::find(missing_[tid], tseq) != missing_[tid].end();
  }

  template <typename T>
  bool expect_eq(const T& prod, const T& ref, Cycle now, const std::string& what) {
    EXPECT_EQ(prod, ref) << what << " at cycle " << now;
    return prod == ref;
  }

  /// Everything the core reads off the controller, the partition and the
  /// window capacities.
  bool agree(Cycle now, const std::string& when) {
    bool ok = expect_eq(prod_side_.second.owner(), ref_side_.second.owner(), now,
                        when + ": owner");
    if (prod_side_.second.owner() != SecondLevelRob::kNoOwner)
      ok &= expect_eq(prod_side_.second.acquired_at(), ref_side_.second.acquired_at(), now,
                      when + ": acquired_at");
    for (const auto& f : kRobControllerStatFields)
      ok &= expect_eq(prod_.stats().*f.member, ref_.stats().*f.member, now,
                      when + ": rob." + f.name);
    ok &= expect_eq(prod_side_.second.grants(), ref_side_.second.grants(), now,
                    when + ": rob.allocations.tN");
    ok &= expect_eq(prod_side_.second.held_cycles(now), ref_side_.second.held_cycles(now), now,
                    when + ": rob.busy.tN");
    for (ThreadId t = 0; t < next_tseq_.size(); ++t) {
      const std::string thread = when + ": thread " + std::to_string(t) + " ";
      ok &= expect_eq(prod_side_.robs[t]->extra(), ref_side_.robs[t]->extra(), now,
                      thread + "extra");
      ok &= expect_eq(prod_.has_pending_candidate(t), ref_.has_pending_candidate(t), now,
                      thread + "pending candidate");
      ok &= expect_eq(prod_.audit_has_trigger(t), ref_.has_trigger(t), now, thread + "trigger");
      if (prod_.audit_has_trigger(t))
        ok &= expect_eq(prod_.audit_trigger_tseq(t), ref_.trigger_tseq(t), now,
                        thread + "trigger tseq");
      std::vector<u64> cands;
      for (const auto& c : prod_.audit_candidates(t)) cands.push_back(c.tseq);
      if (prod_.head_gated())
        ok &= expect_eq(std::ranges::is_sorted(cands), true, now, thread + "candidates in order");
      std::ranges::sort(cands);
      ok &= expect_eq(cands, ref_.candidate_tseqs(t), now, thread + "candidates");
    }
    return ok;
  }

  std::mt19937_64 rng_;
  RobPolicyConfig cfg_;
  Side prod_side_;
  Side ref_side_;
  TwoLevelRobController prod_;
  ReferenceController ref_;
  std::vector<u64> next_tseq_;
  std::vector<std::vector<u64>> missing_;  // detected, not yet filled or squashed
};

class ControllerDifferential : public ::testing::TestWithParam<RobScheme> {};

TEST_P(ControllerDifferential, HeadGatedPassMatchesEveryCandidatePass) {
  RobControllerStats seen;
  u64 grants = 0;
  for (u64 seed = 1; seed <= 200; ++seed) {
    const u32 threads = 2 + static_cast<u32>(seed % 3);
    Differential d(GetParam(), threads, seed);
    ASSERT_TRUE(d.run(4000)) << "seed " << seed << ", " << threads << " threads";
    for (const auto& f : kRobControllerStatFields) seen.*f.member += d.stats().*f.member;
    grants += d.grants();
  }
  // The stream reaches every outcome the comparison is about.
  EXPECT_GT(grants, 0u);
  EXPECT_GT(seen.lease_grants_or_renewals, grants);
  EXPECT_GT(seen.releases, 0u);
  EXPECT_GT(seen.rejected_high_dod, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, ControllerDifferential,
                         ::testing::Values(RobScheme::kReactive, RobScheme::kRelaxedReactive,
                                           RobScheme::kCdr),
                         [](const ::testing::TestParamInfo<RobScheme>& info) {
                           return std::string(rob_scheme_name(info.param));
                         });

}  // namespace
}  // namespace tlrob

#include "rob/allocation_policy.hpp"

#include <algorithm>
#include <cstddef>

namespace tlrob {

TwoLevelRobController::TwoLevelRobController(const RobPolicyConfig& cfg,
                                             std::vector<ReorderBuffer*> robs,
                                             SecondLevelRob& second)
    : cfg_(cfg),
      robs_(std::move(robs)),
      second_(second),
      threads_(robs_.size()) {
  if (cfg.scheme == RobScheme::kPredictive)
    predictor_ = std::make_unique<DodPredictor>(cfg.predictor_entries);
}

u32 TwoLevelRobController::dod_count(ThreadId tid, u64 tseq) const {
  // The hardware scans the first-level window following the load.
  return robs_[tid]->count_unexecuted_younger(tseq, robs_[tid]->base_capacity());
}

void TwoLevelRobController::acquire(ThreadId tid, const DynInst& load, Cycle now) {
  if (second_.available()) {
    second_.allocate(tid, now);
    robs_[tid]->grant_extra(second_.entries());
  } else if (second_.owned_by(tid)) {
    // Renewal: a drain (revoked extra, waiting for release) can be re-armed
    // by a fresh qualifying miss while the lease lasts.
    robs_[tid]->grant_extra(second_.entries());
  }
  threads_[tid].trigger = &load;
  threads_[tid].trigger_tseq = load.tseq;
  ++stats_.lease_grants_or_renewals;
}

bool TwoLevelRobController::maybe_release(ThreadId tid, Cycle now) {
  if (!second_.owned_by(tid)) return false;
  ThreadState& ts = threads_[tid];
  ReorderBuffer& rob = *robs_[tid];

  // The trigger's ROB slot is address-stable while it is live. A commit
  // frees the slot and a later dispatch reuses it under a new tseq; a squash
  // of the trigger clears it first (on_squash).
  const DynInst* t = ts.trigger;
  if (t != nullptr && rob.owns(t) && t->tseq == ts.trigger_tseq && !t->executed)
    return false;  // still waiting on the miss

  // No justifying miss: stop dispatching into the second level and drain.
  bool changed = rob.extra() != 0 || t != nullptr;
  rob.revoke_extra();
  ts.trigger = nullptr;
  if (rob.size() > rob.base_capacity()) return changed;  // drain into level 1 first

  // The cooldown exists to rotate the partition among contenders; with no
  // other thread waiting for it, re-acquisition is free.
  bool contended = false;
  for (u32 o = 0; o < threads_.size(); ++o)
    if (o != tid && !threads_[o].cands.empty()) contended = true;
  ts.cooldown_until = contended ? now + cfg_.lease_cooldown : now;
  second_.release(now);
  ++stats_.releases;
  return true;
}

bool TwoLevelRobController::may_take_or_renew(ThreadId tid, Cycle now) const {
  const bool take = second_.available() && now >= threads_[tid].cooldown_until;
  const bool renew = second_.owned_by(tid) && now < second_.acquired_at() + cfg_.lease_limit;
  return take || renew;
}

void TwoLevelRobController::on_l2_miss_detected(DynInst& load, Cycle now) {
  if (!uses_second_level(cfg_.scheme) || load.wrong_path) return;
  const ThreadId tid = load.tid;
  ThreadState& ts = threads_[tid];
  ++stats_.l2_miss_candidates;

  if (cfg_.scheme == RobScheme::kPredictive) {
    const auto pred = predictor_->predict(tid, load.pc);
    if (pred.has_value()) {
      ++stats_.predictions;
      if (*pred < cfg_.dod_threshold && may_take_or_renew(tid, now)) {
        acquire(tid, load, now);
        ++stats_.predictive_allocations;
      }
    } else {
      ++stats_.prediction_cold_misses;
    }
    // Track for verification at fill regardless of the decision.
    add_candidate(ts, load.tseq, kNeverCycle);
    return;
  }

  add_candidate(ts, load.tseq, cfg_.scheme == RobScheme::kCdr ? now + cfg_.cdr_delay : now);
}

void TwoLevelRobController::add_candidate(ThreadState& ts, u64 tseq, Cycle first_check) {
  // Head-gated schemes keep tseq order, so the head's candidates lead (a
  // younger load's miss can be detected first). The others keep detection
  // order: it is the order a pass decides same-cycle CDR candidates in, and
  // the last of several grants names the trigger.
  const auto at = head_gated() ? std::ranges::upper_bound(ts.cands, tseq, {}, &Candidate::tseq)
                               : ts.cands.end();
  ts.cands.insert(at, {tseq, first_check});
  next_check_floor_ = std::min(next_check_floor_, first_check);
}

void TwoLevelRobController::on_load_fill(DynInst& load, Cycle now) {
  if (!uses_second_level(cfg_.scheme) || load.wrong_path) return;
  const ThreadId tid = load.tid;
  ThreadState& ts = threads_[tid];

  if (cfg_.scheme == RobScheme::kPredictive) {
    // §4.2: the actual count is taken shortly before the miss service
    // completes, verifies the prediction and trains the predictor.
    const u32 actual = dod_count(tid, load.tseq);
    predictor_->update(tid, load.pc, actual);
    if (second_.owned_by(tid) && ts.trigger != nullptr && ts.trigger_tseq == load.tseq &&
        actual >= cfg_.dod_threshold) {
      ++stats_.verification_failures;
      ts.trigger = nullptr;  // lease no longer justified; release on drain
    }
  }

  std::erase_if(ts.cands, [&](const Candidate& c) { return c.tseq == load.tseq; });
  // A younger front keeps a stale point of its grid (see checked).
  if (!ts.cands.empty())
    next_check_floor_ = std::min(next_check_floor_, ts.cands.front().next_check);
  maybe_release(tid, now);
}

TwoLevelRobController::Outcome TwoLevelRobController::decide(ThreadId tid, u64 tseq,
                                                             Cycle now) const {
  const ReorderBuffer& rob = *robs_[tid];
  const DynInst* load = candidate_load(tid, tseq);
  // A candidate's load stays in the window, unexecuted, until on_load_fill
  // or on_squash retires the candidate, so one that is not the head of a
  // head-gated ROB defers.
  if (load == nullptr && head_gated()) return Outcome::kDefer;
  if (load == nullptr || load->executed) return Outcome::kDrop;  // gone or filled

  if (!may_take_or_renew(tid, now)) return Outcome::kDefer;
  // Relaxed drops R-ROB's "first level full" requirement; kCdr has no
  // positional requirement, its snapshot delay gated first_check.
  if (cfg_.scheme == RobScheme::kReactive && !rob.first_level_full()) return Outcome::kDefer;
  // A high count can shrink as independent work executes; the candidate
  // keeps being re-checked while the miss is outstanding.
  return dod_count(tid, tseq) < cfg_.dod_threshold ? Outcome::kGrant : Outcome::kReject;
}

const DynInst* TwoLevelRobController::candidate_load(ThreadId tid, u64 tseq) const {
  const ReorderBuffer& rob = *robs_[tid];
  if (!head_gated()) return rob.find(tseq);
  // R-ROB and Relaxed grant only to the oldest instruction in the ROB.
  const DynInst* head = rob.head();
  return head != nullptr && head->tseq == tseq ? head : nullptr;
}

Cycle TwoLevelRobController::gate_after(ThreadId tid, Cycle t) const {
  // Time enters an evaluation only through now >= cooldown_until (fresh
  // acquisition) and now >= acquired_at + lease_limit (renewal), both
  // monotone: a gate at or before `t` had already flipped by then.
  Cycle gate = kNeverCycle;
  if (threads_[tid].cooldown_until > t) gate = threads_[tid].cooldown_until;
  if (second_.owned_by(tid)) {
    const Cycle expiry = second_.acquired_at() + cfg_.lease_limit;
    if (expiry > t) gate = std::min(gate, expiry);
  }
  return gate;
}

bool TwoLevelRobController::evaluate(ThreadId tid, Candidate& c, Cycle now) {
  const Outcome outcome = decide(tid, c.tseq, now);
  if (outcome == Outcome::kDrop) return true;
  if (outcome == Outcome::kGrant) {
    acquire(tid, *candidate_load(tid, c.tseq), now);
    return true;  // decision made; candidate retired
  }
  if (outcome == Outcome::kReject) ++stats_.rejected_high_dod;
  // Every outcome that keeps the candidate defers it to the next re-check;
  // next_wake() may replay that deferral while the machine stays quiet.
  c.next_check = now + cfg_.recheck_interval;
  return false;
}

bool TwoLevelRobController::adaptive_tick(Cycle now) {
  if (now % cfg_.adaptive_interval != 0) return false;
  bool resized = false;
  for (u32 tid = 0; tid < threads_.size(); ++tid) {
    ThreadState& ts = threads_[tid];
    ReorderBuffer& rob = *robs_[tid];
    if (rob.empty()) continue;
    const u32 unexecuted =
        rob.count_unexecuted_younger(rob.head()->tseq - 1, rob.base_capacity() + ts.adaptive_extra);
    const bool window_saturated = rob.size() + cfg_.adaptive_step / 2 >= rob.capacity();
    const bool head_blocked = !rob.head()->executed;

    if (unexecuted > cfg_.adaptive_issue_bound_threshold) {
      // Issue-bound phase: a larger window would only push more waiting
      // instructions at the shared issue logic — shrink one partition.
      if (ts.adaptive_extra >= cfg_.adaptive_step) {
        ts.adaptive_extra -= cfg_.adaptive_step;
        ++stats_.adaptive_shrinks;
        resized = true;
      }
    } else if (window_saturated && head_blocked) {
      // Commit-bound phase: the window is full behind a long-latency op and
      // the work in it drains quickly — grow one partition.
      if (ts.adaptive_extra + cfg_.adaptive_step <= cfg_.adaptive_max_extra) {
        ts.adaptive_extra += cfg_.adaptive_step;
        ++stats_.adaptive_grows;
        resized = true;
      }
    }
    rob.grant_extra(ts.adaptive_extra);
  }
  return resized;
}

bool TwoLevelRobController::tick(Cycle now) {
  if (cfg_.scheme == RobScheme::kBaseline) return false;
  if (cfg_.scheme == RobScheme::kAdaptive) return adaptive_tick(now);
  // next_check_floor_ is a lower bound on every re-check a pass makes: when
  // now hasn't reached it, no candidate is due and only the holder's
  // release can act (maybe_release is a no-op for every other thread). The
  // bound is recomputed on each pass and lowered whenever a candidate is
  // pushed or a fill hands the front to a younger one; anything else can
  // only raise the true minimum, which merely costs one extra pass.
  if (cfg_.scheme == RobScheme::kPredictive || now < next_check_floor_) {
    const ThreadId owner = second_.owner();
    return owner != SecondLevelRob::kNoOwner && maybe_release(owner, now);
  }
  next_check_floor_ = kNeverCycle;
  bool activity = false;
  // Rotate the evaluation order so that when several threads have qualifying
  // candidates pending, the partition does not always go to the lowest id.
  const u32 n = static_cast<u32>(threads_.size());
  ThreadId tid = static_cast<ThreadId>(now % n);
  for (u32 i = 0; i < n; ++i, tid = tid + 1 == n ? 0 : tid + 1) {
    if (recheck_due(tid, now)) activity = true;  // retirement or acquisition
    if (maybe_release(tid, now)) activity = true;
  }
  return activity;
}

std::span<TwoLevelRobController::Candidate> TwoLevelRobController::checked(ThreadId tid) {
  std::vector<Candidate>& cands = threads_[tid].cands;
  if (!head_gated()) return cands;
  return {cands.begin(), std::ranges::find_if(cands, [&](const Candidate& c) {
            return c.tseq != cands.front().tseq;
          })};
}

bool TwoLevelRobController::recheck_due(ThreadId tid, Cycle now) {
  std::vector<Candidate>& cands = threads_[tid].cands;
  bool retired = false;
  // A retirement can hand the front to a younger run: the span is re-read.
  for (size_t i = 0; i < checked(tid).size();) {
    Candidate& c = cands[i];
    if (head_gated()) c.next_check = grid_at_or_after(c, now);
    if (c.next_check <= now && evaluate(tid, c, now)) {
      cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(i));
      retired = true;
    } else {
      next_check_floor_ = std::min(next_check_floor_, c.next_check);
      ++i;
    }
  }
  return retired;
}

Cycle TwoLevelRobController::grid_at_or_after(const Candidate& c, Cycle t) const {
  if (t <= c.next_check) return c.next_check;
  const Cycle steps = (t - c.next_check + cfg_.recheck_interval - 1) / cfg_.recheck_interval;
  return c.next_check + steps * cfg_.recheck_interval;
}

Cycle TwoLevelRobController::replay_until(ThreadId tid, Candidate& c, Cycle now) {
  // The machine state is frozen from `now` on, so a decision now (not a
  // tick: nothing is counted and no re-check moves) tells every re-check of
  // the sleep until a gate flips.
  c.outcome = decide(tid, c.tseq, now);
  if (c.outcome == Outcome::kDrop || c.outcome == Outcome::kGrant) return c.next_check;
  const Cycle gate = gate_after(tid, now);
  return gate == kNeverCycle ? kNeverCycle : grid_at_or_after(c, gate);
}

Cycle TwoLevelRobController::next_wake(Cycle now) {
  switch (cfg_.scheme) {
    case RobScheme::kBaseline:
    case RobScheme::kPredictive:
      // Notification-driven only (predictive candidates carry
      // next_check = kNeverCycle and are resolved at fill time).
      return kNeverCycle;
    case RobScheme::kAdaptive:
      return (now / cfg_.adaptive_interval + 1) * cfg_.adaptive_interval;
    default:
      break;
  }
  Cycle best = kNeverCycle;
  for (ThreadId tid = 0; tid < threads_.size(); ++tid)
    for (Candidate& c : checked(tid)) best = std::min(best, replay_until(tid, c, now));
  return best;
}

void TwoLevelRobController::replay_idle_to(Cycle wake) {
  for (ThreadId tid = 0; tid < threads_.size(); ++tid) {
    for (Candidate& c : checked(tid)) {
      // next_wake kept `wake` at or before the re-check of every checked
      // candidate whose outcome could differ (P-ROB's never-checked ones
      // included), so each re-check skipped here repeats the outcome
      // next_wake decided.
      if (c.next_check >= wake) continue;
      const Cycle next = grid_at_or_after(c, wake);
      if (c.outcome == Outcome::kReject)
        stats_.rejected_high_dod += (next - c.next_check) / cfg_.recheck_interval;
      c.next_check = next;
    }
  }
  // next_check_floor_ stays a lower bound: replay only raised next_checks.
}

void TwoLevelRobController::on_squash(ThreadId tid, u64 tseq) {
  if (!uses_second_level(cfg_.scheme)) return;
  ThreadState& ts = threads_[tid];
  std::erase_if(ts.cands, [&](const Candidate& c) { return c.tseq > tseq; });
  if (ts.trigger != nullptr && ts.trigger_tseq > tseq) ts.trigger = nullptr;
}

}  // namespace tlrob

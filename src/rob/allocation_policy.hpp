// Second-level ROB allocation controllers (§4, §5.2, §5.3 of the paper):
//
//   kReactive (2-Level R-ROB):  after an L2 miss is detected, allocate the
//     second level iff (1) the missing load is the oldest instruction in its
//     thread's ROB, (2) the first-level ROB is full, and (3) the counted DoD
//     is below the threshold. Conditions are checked when the miss is
//     detected and re-checked every `recheck_interval` (10) cycles.
//   kRelaxedReactive (2-Level Relaxed R-ROB):  as reactive but without the
//     "first-level ROB full" requirement — the count may be taken over a
//     partially full ROB, which under-counts and occasionally over-allocates
//     (the paper's explanation for its slightly lower FT).
//   kCdr (2-Level CDR-ROB):  the dependence-count snapshot is taken a fixed
//     `cdr_delay` (32) cycles after miss detection, with the oldest/full
//     requirements relaxed.
//   kPredictive (2-Level P-ROB):  a PC-indexed last-value DoD predictor
//     decides at miss-detection time; the actual count, taken when the miss
//     service completes, verifies the prediction, updates the predictor, and
//     revokes an allocation that verification disproves.
//
// The DoD count is the paper's low-complexity proxy: the number of
// not-yet-executed instructions in the first-level window younger than the
// missing load (ReorderBuffer::count_unexecuted_younger).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/names.hpp"
#include "common/stats.hpp"
#include "rob/dod_predictor.hpp"
#include "rob/rob.hpp"
#include "rob/two_level_rob.hpp"

namespace tlrob {

enum class RobScheme : u8 {
  kBaseline,
  kReactive,
  kRelaxedReactive,
  kCdr,
  kPredictive,
  /// The comparison point of Sharkey, Balkan & Ponomarev (PACT 2006, the
  /// paper's ref [23]), simplified: each thread's PRIVATE ROB grows and
  /// shrinks in fixed-size partitions between the first-level size and
  /// `adaptive_max_extra` above it, driven by a periodic commit-bound /
  /// issue-bound phase classification. Unlike the two-level design there is
  /// no shared partition and no DoD test, and growth is bounded by the
  /// thread's own physical ROB — the limitation (no coverage of long memory
  /// latencies) the paper's §1 calls out.
  kAdaptive,
};

/// The scheme vocabulary: the name scheme=, --schemes and records use, and
/// the campaign column prefix ("R-ROB" + threshold). Rows without a column
/// are aliases.
struct RobSchemeName {
  RobScheme value;
  const char* name;
  const char* column = nullptr;
};
inline constexpr RobSchemeName kRobSchemeNames[] = {
    {RobScheme::kBaseline, "baseline", "Baseline_32"},
    {RobScheme::kReactive, "rrob", "R-ROB"},
    {RobScheme::kRelaxedReactive, "relaxed", "RelaxedR"},
    {RobScheme::kCdr, "cdr", "CDR-ROB"},
    {RobScheme::kPredictive, "prob", "P-ROB"},
    {RobScheme::kAdaptive, "adaptive", "Adaptive"},
    {RobScheme::kReactive, "reactive"},
    {RobScheme::kPredictive, "predictive"}};

inline const char* rob_scheme_name(RobScheme scheme) {
  return enum_row(kRobSchemeNames, scheme).name;
}

inline RobScheme parse_scheme(const std::string& name) {
  return parse_enum(kRobSchemeNames, name, "ROB scheme");
}

/// R-ROB, Relaxed, CDR and P-ROB allocate the shared second level; Baseline
/// has none and Adaptive grows the private ROBs instead.
constexpr bool uses_second_level(RobScheme scheme) {
  return scheme != RobScheme::kBaseline && scheme != RobScheme::kAdaptive;
}

struct RobPolicyConfig {
  RobScheme scheme = RobScheme::kBaseline;
  u32 dod_threshold = 16;        // best R-ROB value per §5.2
  Cycle recheck_interval = 10;   // §5.2: conditions re-checked every 10 cycles
  Cycle cdr_delay = 32;          // §5.2: CDR snapshot delay
  u32 predictor_entries = 4096;
  /// Fairness bound on one thread's tenure of the shared partition: after
  /// this many cycles the lease stops being renewed by fresh misses, the
  /// holder drains back into its first level and the partition frees. The
  /// paper leaves the relinquish policy open ("unless this storage is
  /// relinquished..."); an unbounded lease lets one continuously-missing
  /// thread monopolise the partition, which defeats the mechanism on mixes
  /// with several memory-bound threads. Covers ~4 back-to-back miss
  /// services by default.
  Cycle lease_limit = 4000;
  /// After a thread's lease ends it may not re-acquire the partition for
  /// this many cycles, so continuously-missing threads take turns instead
  /// of re-grabbing it the moment they release.
  Cycle lease_cooldown = 2500;

  // kAdaptive only (ref [23] reconstruction):
  Cycle adaptive_interval = 128;  // phase-classification period
  u32 adaptive_step = 16;         // partition granularity
  u32 adaptive_max_extra = 96;    // 32 + 96 = 128-entry physical ROB
  /// Issue-bound when more unexecuted instructions than this sit in the
  /// window (they would clog the shared issue logic if the window grew).
  u32 adaptive_issue_bound_threshold = 16;
};

/// Grants and tenures are counted by the partition (SecondLevelRob).
struct RobControllerStats {
  u64 lease_grants_or_renewals = 0;
  u64 releases = 0;
  u64 l2_miss_candidates = 0;
  u64 rejected_high_dod = 0;
  u64 predictions = 0;
  u64 prediction_cold_misses = 0;
  u64 predictive_allocations = 0;
  u64 verification_failures = 0;
  u64 adaptive_grows = 0;
  u64 adaptive_shrinks = 0;
};

inline constexpr auto kRobControllerStatFields = std::to_array<StatField<RobControllerStats>>({
    {&RobControllerStats::lease_grants_or_renewals, "lease_grants_or_renewals"},
    {&RobControllerStats::releases, "releases"},
    {&RobControllerStats::l2_miss_candidates, "l2_miss_candidates"},
    {&RobControllerStats::rejected_high_dod, "rejected_high_dod"},
    {&RobControllerStats::predictions, "predictions"},
    {&RobControllerStats::prediction_cold_misses, "prediction_cold_misses"},
    {&RobControllerStats::predictive_allocations, "predictive_allocations"},
    {&RobControllerStats::verification_failures, "verification_failures"},
    {&RobControllerStats::adaptive_grows, "adaptive.grows"},
    {&RobControllerStats::adaptive_shrinks, "adaptive.shrinks"},
});
static_assert(names_every_field(kRobControllerStatFields));

class TwoLevelRobController {
 public:
  /// `robs[t]` must outlive the controller.
  TwoLevelRobController(const RobPolicyConfig& cfg, std::vector<ReorderBuffer*> robs,
                        SecondLevelRob& second);

  /// Notification: the load's L2 miss became architecturally visible.
  void on_l2_miss_detected(DynInst& load, Cycle now);

  /// Notification: the load's line arrived. Called *before* the load is
  /// marked executed, so the DoD count still sees the pre-fill window.
  void on_load_fill(DynInst& load, Cycle now);

  /// Per-cycle policy evaluation (reactive re-checks, CDR snapshots, lease
  /// release when the holder has drained). Returns true iff the call changed
  /// controller-visible state (candidate retired, partition acquired /
  /// revoked / released, adaptive partition resized) — the core's idle-cycle
  /// fast-forward treats a false return as "this tick was a no-op".
  ///
  /// Called at every cycle, except the spans replay_idle_to() covers. Every
  /// due re-check of a checked candidate (checked()) decides afresh from the
  /// live state. The others keep a stale point of their re-check grid.
  bool tick(Cycle now);

  /// After a no-op core tick at `now`, with the machine state frozen until
  /// the next activity: the earliest future cycle at which tick() could act
  /// without any new notification arriving first. That is the next
  /// phase-classification boundary (kAdaptive), kNeverCycle (baseline /
  /// predictive, which act only on notifications), or the earliest
  /// candidate wake (reactive variants). Each candidate is decided at `now`
  /// without side effects on the machine (only its recorded outcome
  /// changes). A grant or drop then wakes the core at its next re-check. A
  /// deferral or rejection repeats at every re-check until a time gate
  /// after `now` flips — the thread's cooldown_until or its lease expiry
  /// (acquired_at + lease_limit); its wake is the first re-check at or
  /// after that gate. Pure time-gates only — state-driven work (lease
  /// release on drain) is triggered by commits/fills, which are activity in
  /// their own right. Only checked candidates bound the sleep.
  /// Called only after a tick at `now`.
  Cycle next_wake(Cycle now);

  /// Fast-forward to `wake` (at most next_wake(now), which must precede it):
  /// advances each checked candidate's re-check along its grid to the first
  /// point at or after `wake`, counting one rejected_high_dod per replayed
  /// rejection of the outcome next_wake decided, exactly as ticking every
  /// skipped re-check would.
  void replay_idle_to(Cycle wake);

  /// Squash hook: drops candidates of `tid` younger than `tseq`.
  void on_squash(ThreadId tid, u64 tseq);

  const RobPolicyConfig& config() const { return cfg_; }
  SecondLevelRob& second_level() { return second_; }
  DodPredictor* predictor() { return predictor_.get(); }
  const DodPredictor* predictor() const { return predictor_.get(); }
  const RobControllerStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Invariant-audit introspection: whether `tid`'s current grant is backed
  /// by a registered justifying miss, and which load it is. The audit's
  /// second-level check re-derives the paper's allocation contract from
  /// these plus the live ROB/partition state.
  bool audit_has_trigger(ThreadId tid) const { return threads_[tid].trigger != nullptr; }
  u64 audit_trigger_tseq(ThreadId tid) const { return threads_[tid].trigger_tseq; }

  /// What one evaluation of a candidate decides.
  enum class Outcome : u8 {
    kDrop,    // the load committed, was squashed or has filled: retire it
    kGrant,   // acquire (or renew) the partition: retire it
    kDefer,   // keep re-checking; no rejection counted
    kReject,  // keep re-checking; counts one rejected_high_dod
  };
  /// An evaluation's inputs are the thread's ROB (the load's presence and
  /// result-valid bit, the head, level-1 fullness, the DoD count), the
  /// partition (owner, acquired_at), the thread's cooldown_until, and time.
  /// While the machine sleeps only time moves, so the outcome next_wake
  /// decided repeats until the first time gate after its decision.
  struct Candidate {
    u64 tseq = 0;
    Cycle next_check = 0;
    Outcome outcome = Outcome::kDefer;  // next_wake's decision
  };
  /// R-ROB and Relaxed: only a load at its ROB's head can be granted.
  bool head_gated() const {
    return cfg_.scheme == RobScheme::kReactive || cfg_.scheme == RobScheme::kRelaxedReactive;
  }
  /// Invariant-audit introspection: `tid`'s registered candidates, in
  /// ascending tseq order under R-ROB and Relaxed and in detection order
  /// otherwise. Head-gated re-checks rely on each naming a correct-path load
  /// that is in the thread's ROB and not executed.
  std::span<const Candidate> audit_candidates(ThreadId tid) const { return threads_[tid].cands; }

  /// Stall-taxonomy introspection: whether `tid` has a registered allocation
  /// candidate (a long-latency load waiting on — or holding out for — the
  /// second-level window). Candidates mutate only in notification calls and
  /// active ticks, so this is constant across an idle fast-forwarded span.
  bool has_pending_candidate(ThreadId tid) const { return !threads_[tid].cands.empty(); }

 private:
  struct ThreadState {
    std::vector<Candidate> cands;  // see audit_candidates for the order
    const DynInst* trigger = nullptr;  // load justifying current ownership
    u64 trigger_tseq = 0;              // its tseq
    Cycle cooldown_until = 0;  // earliest re-acquisition after a lease
    u32 adaptive_extra = 0;    // kAdaptive: current growth above level 1
  };

  /// Registers `tseq` in `ts`'s candidates, in audit_candidates' order.
  void add_candidate(ThreadState& ts, u64 tseq, Cycle first_check);
  /// `tid`'s candidates that re-checks decide, next_wake bounds the sleep by
  /// and replay_idle_to advances: all, except under R-ROB and Relaxed only
  /// the front run (the oldest and any duplicate of it), which alone can
  /// name the ROB's head. Any other only defers, so it keeps a stale point
  /// of its grid and resumes at grid_at_or_after(c, now) as the front.
  std::span<Candidate> checked(ThreadId tid);
  /// tick()'s re-checks of `tid`'s due checked candidates, lowering
  /// next_check_floor_ to each kept one's next; returns true iff one retired.
  bool recheck_due(ThreadId tid, Cycle now);
  /// The due re-check of one candidate; returns true if it should be
  /// dropped (a drop — retirement or acquisition — always counts as tick()
  /// activity; a deferral only moves next_check, which next_wake() reports).
  bool evaluate(ThreadId tid, Candidate& c, Cycle now);
  /// The paper's allocation decision for `tid`'s load `tseq` at `now`, from
  /// the live state; no side effects.
  Outcome decide(ThreadId tid, u64 tseq, Cycle now) const;
  /// `tid`'s live load `tseq`, or nullptr. Head-gated schemes see only the
  /// ROB's head: any other load is nullptr.
  const DynInst* candidate_load(ThreadId tid, u64 tseq) const;
  /// First time gate of `tid` after cycle `t`, or kNeverCycle.
  Cycle gate_after(ThreadId tid, Cycle t) const;
  /// kAdaptive: periodic per-thread grow/shrink decision (ref [23]).
  /// Returns true iff any partition actually grew or shrank.
  bool adaptive_tick(Cycle now);
  void acquire(ThreadId tid, const DynInst& load, Cycle now);
  /// Returns true iff state changed (trigger cleared, extra revoked, or the
  /// partition released).
  bool maybe_release(ThreadId tid, Cycle now);
  /// True when `tid` holds the partition past the fairness bound, so its
  /// lease must not be renewed by further misses.
  bool lease_expired(ThreadId tid, Cycle now) const;
  /// next_wake()'s bound for one candidate of thread `tid`, deciding it at
  /// `now` first.
  Cycle replay_until(ThreadId tid, Candidate& c, Cycle now);
  /// First point of `c`'s re-check grid (next_check + k * recheck_interval,
  /// k >= 0) at or after `t`.
  Cycle grid_at_or_after(const Candidate& c, Cycle t) const;
  u32 dod_count(ThreadId tid, u64 tseq) const;

  RobPolicyConfig cfg_;
  std::vector<ReorderBuffer*> robs_;
  SecondLevelRob& second_;
  std::unique_ptr<DodPredictor> predictor_;
  std::vector<ThreadState> threads_;
  /// Lower bound on every re-check tick() makes: each checked candidate's
  /// next_check. Lets tick() skip the per-thread loops on cycles where
  /// nothing can be due.
  Cycle next_check_floor_ = kNeverCycle;
  RobControllerStats stats_;
};

}  // namespace tlrob

// The cycle-level SMT out-of-order core.
//
// Organisation (functional-first, timing-directed, as in M-Sim): each
// ThreadContext architecturally executes the correct path; the core's fetch
// stage consumes that stream (or synthesises wrong-path instructions after a
// detected misprediction), and the back end models Table 1's pipeline:
// rename with shared physical register files, shared issue queue, functional
// units, per-thread LSQs and per-thread ROBs with the optional shared
// second-level partition managed by TwoLevelRobController.
//
// Stage evaluation order within a tick: events (completions / fills / miss
// detections, which include branch resolution and squash) -> commit -> issue
// -> dispatch -> fetch -> ROB-policy tick.
//
// Hot-path design (DESIGN.md §8): completion events live in a calendar wheel
// (EventWheel) instead of a priority queue; every per-cycle scratch
// collection is a reused member buffer; the DynInst windows are fixed ring
// slabs; and the run loop (run_lockstep below) fast-forwards runs of
// provably idle cycles — every stage reports whether it changed state, and
// when none did, the core jumps straight to the next cycle at which anything
// *can* happen (next scheduled event, next frontend-head maturity, next
// fetch-stall expiry, next controller re-check), replaying the per-cycle
// stall counters for the skipped distance. Statistics are bit-identical to the cycle-by-cycle
// execution; tests/golden pins that.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/flat_map.hpp"

#include "branch/load_hit_predictor.hpp"
#include "branch/predictor.hpp"
#include "common/ring_deque.hpp"
#include "common/stats.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/interval_sampler.hpp"
#include "memory/memory_system.hpp"
#include "pipeline/dcra.hpp"
#include "pipeline/fetch_policy.hpp"
#include "pipeline/func_units.hpp"
#include "pipeline/issue_queue.hpp"
#include "pipeline/lsq.hpp"
#include "pipeline/rename.hpp"
#include "rob/allocation_policy.hpp"
#include "rob/rob.hpp"
#include "rob/two_level_rob.hpp"
#include "sim/event_wheel.hpp"
#include "sim/metrics.hpp"
#include "sim/presets.hpp"
#include "sim/trace.hpp"
#include "verify/invariant_checker.hpp"
#include "workload/thread_context.hpp"

namespace tlrob {

/// SmtCore counters that accrue once per cycle while the core is stalled.
/// An idle cycle repeats the previous cycle's increments, so
/// replay_idle_to() multiplies each field's last-tick delta across the
/// skipped cycles; a field added here is replayed with no further edit.
struct CorePerCycleStats {
  u64 stall_rob = 0;
  u64 stall_iq = 0;
  u64 stall_lsq = 0;
  u64 stall_regs = 0;
  u64 stall_reg_reserve = 0;
  u64 stall_dcra = 0;
  u64 policy_gated = 0;
};

inline constexpr auto kCorePerCycleStatFields = std::to_array<StatField<CorePerCycleStats>>({
    {&CorePerCycleStats::stall_rob, "dispatch.stall_rob"},
    {&CorePerCycleStats::stall_iq, "dispatch.stall_iq"},
    {&CorePerCycleStats::stall_lsq, "dispatch.stall_lsq"},
    {&CorePerCycleStats::stall_regs, "dispatch.stall_regs"},
    {&CorePerCycleStats::stall_reg_reserve, "dispatch.stall_reg_reserve"},
    {&CorePerCycleStats::stall_dcra, "dispatch.stall_dcra"},
    {&CorePerCycleStats::policy_gated, "fetch.policy_gated"},
});
static_assert(names_every_field(kCorePerCycleStatFields));

/// Every SmtCore counter, exported under "core.". Counters are measured
/// from the last reset_measurement().
struct CoreStats {
  CorePerCycleStats per_cycle;
  u64 events_dropped = 0;
  u64 exec_completed = 0;
  u64 issue_insts = 0;
  u64 issue_replays = 0;
  u64 commit_insts = 0;
  u64 commit_wrong_path_bug = 0;
  u64 dispatch_insts = 0;
  u64 fetch_insts = 0;
  u64 fetch_wrong_path = 0;
  u64 fetch_icache_stalls = 0;
  u64 squash_insts = 0;
  u64 lsq_forwards = 0;
  u64 loads_l1_miss = 0;
  u64 loads_l1_miss_wp = 0;
  u64 loads_spec_wakeups = 0;
  u64 loads_l2_miss = 0;
  u64 loads_l2_miss_wp = 0;
  u64 loads_l2_miss_fills = 0;
  u64 loads_l2_detect_after_fill = 0;
  u64 loads_l2_miss_detect = 0;
  u64 loads_l2_miss_detect_wp = 0;
  u64 flush_triggered = 0;
  u64 flush_undispatched = 0;
  u64 mispredicts_resolved = 0;
  u64 mispredicts_fetched = 0;
  u64 early_released = 0;
  /// Cycles the run loop skipped by idle fast-forward. Lockstep cores skip
  /// together, so a CMP machine reports one core's count.
  u64 fast_forwarded_cycles = 0;
};

inline constexpr auto kCoreStatFields = std::to_array<StatField<CoreStats>>({
    {&CoreStats::events_dropped, "events.dropped"},
    {&CoreStats::exec_completed, "exec.completed"},
    {&CoreStats::issue_insts, "issue.insts"},
    {&CoreStats::issue_replays, "issue.replays"},
    {&CoreStats::commit_insts, "commit.insts"},
    {&CoreStats::commit_wrong_path_bug, "commit.wrong_path_bug"},
    {&CoreStats::dispatch_insts, "dispatch.insts"},
    {&CoreStats::fetch_insts, "fetch.insts"},
    {&CoreStats::fetch_wrong_path, "fetch.wrong_path"},
    {&CoreStats::fetch_icache_stalls, "fetch.icache_stalls"},
    {&CoreStats::squash_insts, "squash.insts"},
    {&CoreStats::lsq_forwards, "lsq.forwards"},
    {&CoreStats::loads_l1_miss, "loads.l1_miss"},
    {&CoreStats::loads_l1_miss_wp, "loads.l1_miss_wp"},
    {&CoreStats::loads_spec_wakeups, "loads.spec_wakeups"},
    {&CoreStats::loads_l2_miss, "loads.l2_miss"},
    {&CoreStats::loads_l2_miss_wp, "loads.l2_miss_wp"},
    {&CoreStats::loads_l2_miss_fills, "loads.l2_miss_fills"},
    {&CoreStats::loads_l2_detect_after_fill, "loads.l2_detect_after_fill"},
    {&CoreStats::loads_l2_miss_detect, "loads.l2_miss_detect"},
    {&CoreStats::loads_l2_miss_detect_wp, "loads.l2_miss_detect_wp"},
    {&CoreStats::flush_triggered, "flush.triggered"},
    {&CoreStats::flush_undispatched, "flush.undispatched"},
    {&CoreStats::mispredicts_resolved, "branch.mispredicts_resolved"},
    {&CoreStats::mispredicts_fetched, "branch.mispredicts_fetched"},
    {&CoreStats::early_released, "rename.early_released"},
    {&CoreStats::fast_forwarded_cycles, "fast_forwarded_cycles"},
});
static_assert(names_every_field(kCoreStatFields, sizeof(CorePerCycleStats)));

class SmtCore {
 public:
  /// One Benchmark per hardware thread; `benchmarks.size()` must equal
  /// cfg.num_threads. In CMP machines, `shared` is the machine-wide LLC/DRAM
  /// backend behind this core's L2 and `core_id` attributes its requests;
  /// standalone cores (null backend) keep the private fixed-latency channel.
  /// Core `core_id` hosts the machine-global threads from
  /// `core_id * cfg.num_threads` on.
  SmtCore(const MachineConfig& cfg, const std::vector<Benchmark>& benchmarks,
          SharedMemory* shared = nullptr, u32 core_id = 0);

  /// run_lockstep over this core alone, then snapshot_result(): runs until
  /// any thread has committed `commit_target` instructions or `max_cycles`
  /// elapse, with `warmup_insts` excluded from every statistic.
  RunResult run(u64 commit_target, u64 max_cycles = 0, u64 warmup_insts = 0);

  /// Zeroes every statistic (counters, histograms, IPC baselines) while
  /// preserving microarchitectural state. Used at the warmup boundary.
  void reset_measurement();

  /// Advances exactly one cycle (never fast-forwards). Returns true iff the
  /// tick changed machine state; a false return means idle_wake() and
  /// replay_idle_to() may be used for this cycle.
  bool tick();

  Cycle now() const { return cycle_; }
  u64 committed(ThreadId t) const { return threads_[t].committed; }

  /// Largest measurement-relative commit count over this core's threads —
  /// run_lockstep's progress metric.
  u64 fastest_measured() const {
    u64 best = 0;
    for (const auto& ts : threads_) {
      const u64 m = ts.committed - ts.committed_base;
      if (m > best) best = m;
    }
    return best;
  }
  u32 outstanding_l1(ThreadId t) const { return threads_[t].outstanding_l1; }
  u32 outstanding_l2(ThreadId t) const { return threads_[t].outstanding_l2; }
  const ReorderBuffer& rob(ThreadId t) const { return threads_[t].rob; }
  const IssueQueue& issue_queue() const { return iq_; }
  MemorySystem& memory() { return mem_; }
  TwoLevelRobController& rob_controller() { return *rob_ctrl_; }
  SecondLevelRob& second_level() { return second_; }
  RenameUnit& rename_unit() { return rename_; }
  const CoreStats& stats() const { return stats_; }
  PipelineTracer& tracer() { return tracer_; }
  const MachineConfig& config() const { return cfg_; }
  const EventWheel& event_wheel() const { return wheel_; }

  /// Attaches a Chrome trace-event writer (nullptr detaches). Unlike the
  /// text tracer this does not pin the core to cycle-by-cycle execution:
  /// every span edge and instant happens in a state-changing tick, which
  /// the idle-cycle fast-forward never skips (obs/chrome_trace.hpp).
  void attach_chrome_trace(obs::ChromeTraceWriter* writer);

  /// Closes any still-open second-level tenure into the attached Chrome
  /// trace (span end = the current cycle) without disturbing the live
  /// grant; run_lockstep calls this at exit so traces never end with a
  /// dangling allocation.
  void flush_chrome_trace();

  /// Interval-telemetry series recorded so far (empty unless
  /// cfg.telemetry.sample_interval is nonzero).
  const obs::IntervalSeries& samples() const { return series_; }

  /// Ticks actually executed (cycle_ minus fast-forwarded ones) — the
  /// denominator for the host profiler's ns/cycle column.
  u64 executed_cycles() const { return cycle_ - fast_forwarded_; }

  /// Cycles run_lockstep skipped via idle fast-forward over the whole run,
  /// warmup included (counted in cycle_ exactly as if they had been ticked).
  u64 fast_forwarded_cycles() const { return fast_forwarded_; }

  /// The pipeline invariant auditor (cfg.audit decides what runs per cycle).
  InvariantChecker& auditor() { return auditor_; }

  /// Runs every registered invariant check against the current state
  /// immediately, regardless of the configured audit level or intervals.
  /// Returns the number of violations found by this sweep.
  u32 audit_now();

  /// Test-only mutable access to structures the audit tests corrupt; the
  /// simulator itself never uses these.
  ReorderBuffer& rob_for_test(ThreadId t) { return threads_[t].rob; }
  LoadStoreQueue& lsq_for_test(ThreadId t) { return threads_[t].lsq; }
  IssueQueue& iq_for_test() { return iq_; }
  EventWheel& wheel_for_test() { return wheel_; }

  /// Builds the RunResult for the current state (run() calls this at exit).
  RunResult snapshot_result() const;

  // -- Fast-forward interface (run_lockstep) ---------------------------------

  /// The auditor samples fixed cycle intervals and the tracer logs a window,
  /// so either being attached pins this core to cycle-by-cycle execution.
  /// (The Chrome trace and the interval sampler do NOT pin it: trace events
  /// only happen in state-changing ticks, and skipped sample points are
  /// replayed by replay_idle_to from the quiescent state.)
  bool pinned() const { return auditor_.enabled() || tracer_.attached(); }
  /// After an idle tick(): the earliest future cycle anything can happen at
  /// on this core, bounded by `limit`. A result <= now() means no skip.
  Cycle idle_wake(Cycle limit) const;
  /// Jumps the core to `wake`, replaying per-cycle stall counters, sample
  /// points and the controller's quiet re-checks for the skipped distance
  /// (wake must not exceed this core's idle_wake bound).
  void replay_idle_to(Cycle wake);

 private:
  struct ThreadState {
    std::unique_ptr<ThreadContext> ctx;
    ReorderBuffer rob;
    LoadStoreQueue lsq;
    /// Fetched, awaiting dispatch (oldest front). Sized for the fetch buffer
    /// plus the whole ROB slab: FLUSH un-dispatch pushes a full window back.
    RingDeque<DynInst> frontend;
    /// Block index by entry PC. Sealed at construction; sorted flat storage
    /// so any future iteration (or emission) of it is deterministic (D1).
    FlatMap<Addr, u32> block_of_pc;

    u64 next_tseq = 1;
    u64 committed = 0;
    u64 committed_base = 0;  // committed count at the last measurement reset

    // Fetch state.
    bool wrong_path = false;  // fetching down a mispredicted path
    bool wp_dead = false;     // wrong-path cursor fell off the CFG
    u32 wp_block = 0;
    u32 wp_index = 0;
    Cycle fetch_stall_until = 0;

    // Outstanding-miss accounting (STALL/FLUSH gating, DCRA classification).
    u32 outstanding_l1 = 0;
    u32 outstanding_l2 = 0;
    u32 unresolved_ctrl = 0;  // dispatched control ops not yet resolved

    ThreadState(u32 rob_cap, u32 rob_max_extra, u32 lsq_cap, u32 frontend_cap)
        : rob(rob_cap, rob_max_extra),
          lsq(lsq_cap),
          frontend(frontend_cap + rob_cap + rob_max_extra) {}
  };

  // -- stages (each returns true iff it changed machine state this cycle) ----
  bool process_events();
  bool do_commit();
  bool do_issue();
  bool do_dispatch();
  bool do_fetch();
  bool do_early_release();

  // -- helpers ----------------------------------------------------------------
  void refresh_views();
  DynInst* find_inst(const InstRef& ref);
  void schedule(Cycle when, EvKind kind, const DynInst& di);
  void handle_fu_complete(DynInst& di);
  void handle_load_fill(DynInst& di);
  void handle_l2_miss_detect(DynInst& di);
  void handle_load_replay(DynInst& di);
  void finish_execution(DynInst& di);
  void resolve_control(DynInst& di);
  void squash_after(ThreadId tid, u64 tseq);
  void undispatch_after(ThreadId tid, u64 tseq);
  void drop_outstanding_counts(DynInst& di);
  void refresh_audit_ctx();
  /// Captures one interval sample labelled `label` from the current state
  /// (also called from replay_idle_to()'s fast-forward replay, where the
  /// quiescent state is exactly the state every skipped cycle saw).
  void record_sample(Cycle label);
  /// Stall-cycle taxonomy (active iff sampling is on): classifies thread `t`
  /// at cycle `c` from current machine state. Pure; every input except the
  /// cycle-indexed latency-chain segment comparison is invariant across an
  /// idle span, which is what lets the fast-forward attribute skipped spans
  /// piecewise instead of executing them.
  obs::StallClass classify_stall(ThreadId t, Cycle c, bool committed_now) const;
  /// Attributes the cycle being ticked (cycle_) for every thread; called at
  /// the end of tick(), before the sampler, so samples see it.
  void attribute_tick();
  /// Attributes the idle cycles [from, to) from the quiescent state,
  /// splitting at the head load's segment edges (at most three breakpoints).
  void attribute_idle_span(Cycle from, Cycle to);
  /// Observes second-level ownership transitions for the Chrome trace's
  /// grant-lifecycle spans and the text tracer's grant notes. Called at the
  /// end of a tick only while an observer is attached; transitions can only
  /// happen in state-changing ticks, which are never fast-forwarded.
  void poll_second_level();
  bool fetch_one(ThreadState& ts, ThreadId tid);
  DynInst make_correct_path_inst(ThreadState& ts, ThreadId tid);
  DynInst make_wrong_path_inst(ThreadState& ts, ThreadId tid);
  bool try_dispatch_one(ThreadState& ts, ThreadId tid);
  bool issue_one(DynInst& di);
  void issue_load(DynInst& di);
  void replay_dependents_of(PhysReg reg);
  Addr icache_addr(const ThreadState& ts, Addr pc) const {
    return ts.ctx->addr_space_base() + pc;
  }

  MachineConfig cfg_;
  /// Machine-global index of thread 0 (core_id * num_threads): it keys the
  /// address space and workload seed, and the per-thread counter families.
  u32 thread_base_;
  std::vector<Benchmark> benchmarks_;
  SharedMemory* shared_ = nullptr;  // not owned; null outside CMP machines
  std::vector<ThreadState> threads_;
  RenameUnit rename_;
  IssueQueue iq_;
  FuncUnitPool fus_;
  MemorySystem mem_;
  BranchPredictor bpred_;
  LoadHitPredictor lhp_;
  DcraController dcra_;
  std::unique_ptr<FetchPolicy> fetch_policy_;
  SecondLevelRob second_;
  std::unique_ptr<TwoLevelRobController> rob_ctrl_;

  EventWheel wheel_;
  Cycle cycle_ = 0;
  Cycle cycle_base_ = 0;  // cycle count at the last measurement reset
  SeqNum next_seq_ = 1;
  u64 commit_rr_ = 0;
  u64 fast_forwarded_ = 0;  // whole run; stats_ counts the measured part
  // First cycle of the current run of no-op ticks (fast-forwarded cycles
  // included): the controller replays re-checks evaluated since then.
  Cycle quiet_since_ = 0;
  // Per-cycle counters captured by tick() before the tick ran; the deltas
  // are what replay_idle_to() multiplies across skipped cycles.
  CorePerCycleStats per_cycle_base_;
  Rng wp_rng_;

  // Reused per-cycle scratch (capacity retained; steady state never
  // allocates).
  std::vector<ThreadFetchView> views_;
  std::vector<ThreadId> order_;
  std::vector<DynInst*> ready_scratch_;
  std::vector<PhysReg> replay_regs_;     // worklist for replay_dependents_of
  std::vector<DynInst*> replay_victims_;

  CoreStats stats_;
  PipelineTracer tracer_;
  Histogram dod_true_{31};
  Histogram dod_proxy_{31};

  // Observability (src/obs). All off by default: sample_every_ == 0 makes
  // the per-tick sampler test one short-circuited compare, trace_ == nullptr
  // skips every event hook.
  obs::ChromeTraceWriter* trace_ = nullptr;
  obs::IntervalSeries series_;
  Cycle sample_every_ = 0;
  Cycle next_sample_ = 0;
  // Closed stall-cycle taxonomy, gated with the sampler (sample_every_ != 0):
  // per thread, measurement-relative cycles per obs::StallClass — exactly one
  // class per thread per cycle, so each row sums to cycle_ - cycle_base_.
  // Kept out of stats_ so a sampling run's counter map stays identical to a
  // non-sampling run's (snapshot_result exports it as RunResult::stall_cycles).
  std::vector<std::array<u64, obs::kStallClassCount>> stall_cycles_;
  // Per-thread committed counts at the top of the current tick (kCommit
  // detection scratch; only maintained while the taxonomy is on).
  std::vector<u64> commit_base_scratch_;
  // Second-level tenure being observed by poll_second_level().
  ThreadId sl_owner_ = SecondLevelRob::kNoOwner;
  Cycle sl_acquired_ = 0;
  u64 sl_allocs_ = 0;
  u64 sl_trigger_ = 0;

  InvariantChecker auditor_;
  AuditContext audit_ctx_;  // stable pointers into the members above
};

/// The one run loop every machine goes through (SmtCore::run and
/// CmpMachine::run). Ticks `cores` in lockstep, in index order (the
/// deterministic interleaving of shared LLC/DRAM requests), until any thread
/// on any core has committed `commit_target` instructions or `max_cycles`
/// elapse (0 = derive a generous bound from the target). `warmup_insts`
/// commits per fastest thread are executed first and then excluded from
/// every statistic — the stand-in for the paper's Simpoint fast-forwarding
/// (cold caches otherwise dominate short runs). The machine fast-forwards
/// only when EVERY core proved its cycle idle, to the earliest of their wake
/// bounds, and never while any core is pinned(). Closes open Chrome-trace
/// tenures at exit; callers take snapshot_result() afterwards.
void run_lockstep(std::span<SmtCore* const> cores, u64 commit_target, u64 max_cycles = 0,
                  u64 warmup_insts = 0);

}  // namespace tlrob

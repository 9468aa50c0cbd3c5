#include "sim/smt_sim.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "memory/shared_memory.hpp"
#include "obs/self_profile.hpp"

namespace tlrob {

SmtCore::SmtCore(const MachineConfig& cfg, const std::vector<Benchmark>& benchmarks,
                 SharedMemory* shared, u32 core_id)
    : cfg_(cfg.validate()),
      thread_base_(core_id * cfg.num_threads),
      benchmarks_(benchmarks),
      shared_(shared),
      rename_(RenameConfig{cfg.int_regs, cfg.fp_regs, cfg.num_threads, cfg.shared_regfile}),
      iq_(cfg.iq_entries, cfg.num_threads),
      fus_(),
      mem_(cfg.memory, shared, core_id),
      bpred_(cfg.predictor, cfg.num_threads),
      lhp_(cfg.load_hit_entries, cfg.load_hit_history, cfg.num_threads),
      second_(cfg.rob_second_level, cfg.num_threads),
      wp_rng_(cfg.seed ^ 0xabcdef12345ULL),
      series_(cfg.telemetry.sample_interval),
      sample_every_(cfg.telemetry.sample_interval),
      next_sample_(cfg.telemetry.sample_interval),
      auditor_(cfg.audit, cfg.num_threads) {
  if (benchmarks_.size() != cfg.num_threads)
    throw std::invalid_argument("SmtCore: one benchmark per hardware thread required");

  // The ROB ring slabs are sized for the largest window any scheme can ever
  // grant this configuration: the shared second level, or kAdaptive's
  // per-thread growth bound.
  const u32 rob_max_extra = std::max(cfg.rob_second_level, cfg.rob.adaptive_max_extra);
  // Fetch fills the frontend up to frontend_buffer; only FLUSH's
  // undispatch_after pushes a whole window back in front of that.
  const u32 frontend_slots =
      cfg.frontend_buffer +
      (cfg.fetch_policy == FetchPolicyKind::kFlush ? cfg.rob_first_level + rob_max_extra : 0);
  threads_.reserve(cfg.num_threads);
  for (ThreadId t = 0; t < cfg.num_threads; ++t) {
    threads_.emplace_back(cfg.rob_first_level, rob_max_extra, cfg.lsq_entries, frontend_slots);
    ThreadState& ts = threads_.back();
    // Global thread identity: CMP machines offset each core's threads so
    // every thread in the machine gets a distinct address space and workload
    // seed; core 0 keeps the historical single-core values bit-for-bit.
    const u64 gt = thread_base_ + t;
    const Addr base = static_cast<Addr>(gt + 1) << 36;
    const u64 salt = cfg.seed + 7919ULL * (gt + 1);
    ts.ctx = benchmarks_[t].source_factory
                 ? benchmarks_[t].source_factory(benchmarks_[t], base, salt)
                 : std::make_unique<ThreadContext>(benchmarks_[t], base, salt);
    const Program& prog = ts.ctx->program();
    ts.block_of_pc.reserve(prog.num_blocks());
    for (u32 b = 0; b < prog.num_blocks(); ++b)
      ts.block_of_pc.emplace(prog.block(b).insts.front().pc, b);
    ts.block_of_pc.seal();
  }

  std::vector<ReorderBuffer*> robs;
  for (auto& ts : threads_) robs.push_back(&ts.rob);
  rob_ctrl_ = std::make_unique<TwoLevelRobController>(cfg.rob, std::move(robs), second_);

  stall_cycles_.assign(cfg.num_threads, {});
  commit_base_scratch_.assign(cfg.num_threads, 0);

  icount_.resize(cfg.num_threads);
  order_.reserve(cfg.num_threads);
  ready_scratch_.reserve(cfg.iq_entries);
  replay_regs_.reserve(64);
  replay_victims_.reserve(cfg.iq_entries);

  // Functional cache warming (the stand-in for Simpoint fast-forwarding):
  // REUSED data starts resident, so short runs measure steady-state
  // behaviour instead of cold-start churn. Only content a benchmark actually
  // re-touches is installed — streaming sweeps, pointer chases and the cold
  // bodies of gather regions have no reuse to preserve, and warming them
  // would only flush everyone else's hot sets. Large reuse prefixes go
  // first, small per-thread hot sets last (LRU-youngest).
  for (ThreadId t = 0; t < cfg.num_threads; ++t) {
    const Addr base = threads_[t].ctx->addr_space_base();
    for (const AddrGenSpec& s : benchmarks_[t].agens) {
      if (s.pattern == AddrPattern::kRandom && s.hot_bytes > 0)
        mem_.prewarm_region(base + s.base, s.hot_bytes);
      else if (s.pattern == AddrPattern::kRandom && s.region_bytes <= (1 << 20))
        mem_.prewarm_region(base + s.base, s.region_bytes);
    }
  }
  for (ThreadId t = 0; t < cfg.num_threads; ++t) {
    const Addr base = threads_[t].ctx->addr_space_base();
    for (const AddrGenSpec& s : benchmarks_[t].agens)
      if (s.pattern == AddrPattern::kStack)
        mem_.prewarm_region(base + s.base, s.region_bytes);
  }
}

// ---------------------------------------------------------------------------
// Event plumbing
// ---------------------------------------------------------------------------

void SmtCore::schedule(Cycle when, EvKind kind, const DynInst& di) {
  wheel_.schedule(when, kind, InstRef{.tseq = di.tseq, .tid = di.tid, .replay_gen = di.replay_gen});
}

DynInst* SmtCore::find_inst(const InstRef& ref) {
  DynInst* d = threads_[ref.tid].rob.find(ref.tseq);
  if (d == nullptr || d->replay_gen != ref.replay_gen) return nullptr;
  return d;
}

bool SmtCore::process_events() {
  const u64 before = wheel_.processed_total();
  wheel_.process_due(cycle_, [&](const SimEvent& ev) {
    if (ev.kind == EvKind::kWake) return;  // wake marker: exists only so the
                                           // fast-forward sees this cycle
    DynInst* di = find_inst(ev.ref);
    if (di == nullptr) {
      ++stats_.events_dropped;
      return;
    }
    switch (ev.kind) {
      case EvKind::kFuComplete: handle_fu_complete(*di); break;
      case EvKind::kLoadFill: handle_load_fill(*di); break;
      case EvKind::kL2MissDetect: handle_l2_miss_detect(*di); break;
      case EvKind::kLoadReplay: handle_load_replay(*di); break;
      case EvKind::kWake: break;  // handled above
    }
  });
  return wheel_.processed_total() != before;
}

void SmtCore::handle_fu_complete(DynInst& di) { finish_execution(di); }

void SmtCore::handle_load_fill(DynInst& di) {
  if (!di.wrong_path && di.is_l2_miss) {
    // Figures 1 / 3 / 7: dependents captured by the ROB at miss-service time.
    ReorderBuffer& rob = threads_[di.tid].rob;
    const u32 dod_true = rob.count_true_dependents(di);
    const u32 dod_proxy = rob.count_unexecuted_younger(di.tseq, 0xffffffffu);
    dod_true_.record(dod_true);
    dod_proxy_.record(dod_proxy);
    ++stats_.loads_l2_miss_fills;
    if (trace_ != nullptr) {
      // The miss shadow: detection to line arrival, the window the paper's
      // second-level grants live in.
      trace_->complete_event(di.tid, "l2_miss_shadow", di.l2_miss_detect_cycle, cycle_,
                             {{"tseq", di.tseq}, {"pc", di.pc}});
      trace_->instant_event(di.tid, "dod_snapshot", cycle_,
                            {{"dod_true", dod_true}, {"dod_proxy", dod_proxy}});
    }
  }
  if (!di.wrong_path) rob_ctrl_->on_load_fill(di, cycle_);
  drop_outstanding_counts(di);
  finish_execution(di);
}

void SmtCore::handle_l2_miss_detect(DynInst& di) {
  // A merged secondary miss can be serviced before the nominal detection
  // time (it piggybacks on a fill that is about to arrive); a "detection"
  // of an already-completed load must not gate fetch, flush, or count.
  if (di.executed) {
    ++stats_.loads_l2_detect_after_fill;
    return;
  }
  if (!di.l2_counted) {
    ++threads_[di.tid].outstanding_l2;
    di.l2_counted = true;
  }
  ++(di.wrong_path ? stats_.loads_l2_miss_detect_wp : stats_.loads_l2_miss_detect);
  if (di.wrong_path) return;
  rob_ctrl_->on_l2_miss_detected(di, cycle_);
  if (trace_ != nullptr)
    trace_->instant_event(di.tid, "second_level_request", cycle_,
                          {{"tseq", di.tseq}, {"pc", di.pc}});
  if (cfg_.fetch_policy == FetchPolicyKind::kFlush) {
    undispatch_after(di.tid, di.tseq);
    ++stats_.flush_triggered;
  }
}

void SmtCore::handle_load_replay(DynInst& di) {
  // The load was predicted to hit L1 but missed: kill the speculative
  // wakeup and replay every dependent that issued on it.
  if (di.dest_phys != kInvalidPhysReg && rename_.is_spec(di.dest_phys)) {
    rename_.clear_spec(di.dest_phys);
    replay_dependents_of(di.dest_phys);
  }
}

void SmtCore::replay_dependents_of(PhysReg reg) {
  // Iterative worklist form of the chained-speculation walk. The visited set
  // is identical to the recursive version's: a victim's spec_used flags are
  // cleared when it is processed (so it can never match again), and a
  // register enters the worklist only once, right after its spec bit is
  // cleared.
  replay_regs_.clear();
  replay_regs_.push_back(reg);
  while (!replay_regs_.empty()) {
    const PhysReg r = replay_regs_.back();
    replay_regs_.pop_back();
    iq_.collect_into(replay_victims_, [&](DynInst& e) {
      return e.issued && !e.executed &&
             ((e.spec_used[0] && e.src_phys[0] == r) ||
              (e.spec_used[1] && e.src_phys[1] == r));
    });
    for (DynInst* e : replay_victims_) {
      e->issued = false;
      iq_.mark_unissued(e);
      ++e->replay_gen;  // poison in-flight completion events
      e->spec_used[0] = e->spec_used[1] = false;
      drop_outstanding_counts(*e);
      if (e->is_load()) {
        e->is_l2_miss = false;
        e->l1_hit = false;
        e->addr_resolved = false;
      }
      ++stats_.issue_replays;
      if (e->dest_phys != kInvalidPhysReg && rename_.is_spec(e->dest_phys)) {
        rename_.clear_spec(e->dest_phys);
        replay_regs_.push_back(e->dest_phys);  // chained speculation
      }
    }
  }
}

void SmtCore::drop_outstanding_counts(DynInst& di) {
  ThreadState& ts = threads_[di.tid];
  if (di.l1_counted) {
    if (ts.outstanding_l1 > 0) --ts.outstanding_l1;
    di.l1_counted = false;
  }
  if (di.l2_counted) {
    if (ts.outstanding_l2 > 0) --ts.outstanding_l2;
    di.l2_counted = false;
  }
}

void SmtCore::finish_execution(DynInst& di) {
  if (di.executed) return;  // idempotent: commit-poll and events may race
  di.executed = true;
  di.complete_cycle = cycle_;
  if (di.dest_phys != kInvalidPhysReg) {
    rename_.set_ready(di.dest_phys);
    iq_.wake_waiters(di.dest_phys);
  }
  if (di.in_iq) iq_.remove(&di);  // speculatively issued entries release here
  rename_.consumers_read(di);
  if (trace_ != nullptr) trace_stage("complete", di);
  ++stats_.exec_completed;
  if (di.is_ctrl() && !di.branch_resolved) {
    di.branch_resolved = true;
    ThreadState& ts = threads_[di.tid];
    if (ts.unresolved_ctrl > 0) --ts.unresolved_ctrl;
    resolve_control(di);
  }
}

void SmtCore::resolve_control(DynInst& di) {
  if (di.wrong_path) return;
  {
    obs::PhaseScope ps(obs::Phase::kPredict);
    bpred_.train(di.tid, *di.si, di.pred, di.taken, di.actual_target);
  }
  if (!di.mispredicted) return;

  ++stats_.mispredicts_resolved;
  {
    obs::PhaseScope ps(obs::Phase::kPredict);
    bpred_.recover(di.tid, *di.si, di.pred, di.taken);
  }
  squash_after(di.tid, di.tseq);
  ThreadState& ts = threads_[di.tid];
  ts.wrong_path = false;
  ts.wp_dead = false;
  ts.fetch_stall_until = std::max(ts.fetch_stall_until, cycle_ + 1);
}

void SmtCore::release_entry(ThreadState& ts, DynInst& d) {
  if (d.in_iq) iq_.remove(&d);
  drop_outstanding_counts(d);
  if (!d.executed) rename_.consumers_cancel(d);
  if (d.is_ctrl() && !d.branch_resolved && ts.unresolved_ctrl > 0) --ts.unresolved_ctrl;
  ++d.replay_gen;  // poison its in-flight events
  rename_.squash_undo(d);
}

void SmtCore::squash_after(ThreadId tid, u64 tseq) {
  ThreadState& ts = threads_[tid];
  const u64 squashed_before = stats_.squash_insts;
  while (!ts.frontend.empty() && ts.frontend.back().tseq > tseq) ts.frontend.pop_back();
  ts.lsq.squash_after(tseq);  // before the ROB destroys the entries it points at
  ts.rob.squash_after(tseq, [&](DynInst& d) {
    release_entry(ts, d);
    if (trace_ != nullptr) trace_stage("squashed", d);
    ++stats_.squash_insts;
  });
  rob_ctrl_->on_squash(tid, tseq);
  const u64 squashed = stats_.squash_insts - squashed_before;
  if (trace_ != nullptr)
    trace_->instant_event(tid, "squash", cycle_, {{"insts", squashed}, {"after_tseq", tseq}});
}

void SmtCore::undispatch_after(ThreadId tid, u64 tseq) {
  // FLUSH-policy semantics: free the shared resources held by this thread's
  // post-miss instructions, but keep the instructions themselves — they go
  // back to the front of the dispatch queue instead of being re-fetched
  // (equivalent shared-resource behaviour; see DESIGN.md).
  ThreadState& ts = threads_[tid];
  ts.lsq.squash_after(tseq);  // before the ROB pops the entries it points at
  ts.rob.squash_after(tseq, [&](DynInst& d) {
    release_entry(ts, d);
    d.dispatched = false;
    d.issued = false;
    d.executed = false;
    d.branch_resolved = false;
    d.addr_resolved = false;
    d.lsq_allocated = false;
    d.l1_hit = false;
    d.is_l2_miss = false;
    d.l2_miss_detect_cycle = kNeverCycle;
    d.seg_private_end = 0;
    d.seg_llc_end = 0;
    d.seg_dram_end = 0;
    d.complete_cycle = kNeverCycle;
    d.spec_used[0] = d.spec_used[1] = false;
    d.src_phys[0] = d.src_phys[1] = kInvalidPhysReg;
    d.dest_phys = kInvalidPhysReg;
    d.prev_dest_phys = kInvalidPhysReg;
    d.iq_slot = -1;
    // The ROB pops youngest-first; pushing each straight onto the frontend's
    // front leaves them oldest-first ahead of the (younger) fetched entries —
    // the same order the old two-pass copy produced, without the scratch
    // vector. Under FLUSH the frontend ring is sized for the whole window,
    // so this cannot overflow.
    ts.frontend.push_front(std::move(d));
    ++stats_.flush_undispatched;
  });
  rob_ctrl_->on_squash(tid, tseq);
}

// ---------------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------------

bool SmtCore::do_commit() {
  u32 budget = cfg_.commit_width;
  u32 pops = 0;
  const u32 n = cfg_.num_threads;
  ThreadId t = static_cast<ThreadId>(commit_rr_ % n);
  for (u32 i = 0; i < n && budget > 0; ++i, t = t + 1 == n ? 0 : t + 1) {
    ThreadState& ts = threads_[t];
    while (budget > 0) {
      DynInst* h = ts.rob.head();
      if (h == nullptr) break;
      // Store-data completion: an issued store whose data arrived after its
      // address generation becomes committable here.
      if (h->is_store() && h->issued && !h->executed &&
          (h->src_phys[0] == kInvalidPhysReg || rename_.is_ready(h->src_phys[0], cycle_)))
        finish_execution(*h);
      if (!h->executed) break;
      if (h->wrong_path) {
        // Should be unreachable: the mispredicted branch squashes before
        // committing. Counted rather than asserted so long runs surface it.
        ++stats_.commit_wrong_path_bug;
      }
      if (h->is_store() && !h->wrong_path) {
        obs::PhaseScope ps(obs::Phase::kMemory);
        mem_.access_data(h->mem_addr, true, cycle_);
      }
      if (h->is_mem() && h->lsq_allocated) ts.lsq.pop(h);
      drop_outstanding_counts(*h);  // defensive: no committed op may keep gating fetch
      rename_.commit_free(*h);
      auditor_.on_commit(t, h->tseq, cycle_);
      if (trace_ != nullptr) trace_stage("commit", *h);
      if (!h->wrong_path) {
        ++ts.committed;
        ++stats_.commit_insts;
      }
      ts.rob.pop_head();
      --budget;
      ++pops;
    }
  }
  ++commit_rr_;
  return pops > 0;
}

// ---------------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------------

bool SmtCore::do_issue() {
  // Stores issue for address generation as soon as the address dependence
  // (src[1]) is ready; the data (src[0]) is only needed at commit (split
  // store-address / store-data, as in real LSQs) — the queue's mirrored
  // wakeup sources encode that shape, so the scan only tests readiness.
  // Entries blocked on a plain not-ready register park in the queue until
  // that register's wake (finish_execution / speculative load wakeup).
  iq_.collect_issue_candidates(ready_scratch_, [&](PhysReg r) {
    if (rename_.is_ready(r, cycle_)) return IssueQueue::SrcState::kReady;
    return rename_.is_spec(r) ? IssueQueue::SrcState::kWaitTime
                              : IssueQueue::SrcState::kWaitEvent;
  });
  std::sort(ready_scratch_.begin(), ready_scratch_.end(),
            [](const DynInst* a, const DynInst* b) { return a->seq < b->seq; });

  u32 issued = 0;
  bool fu_blocked = false;
  for (DynInst* d : ready_scratch_) {
    if (issued >= cfg_.issue_width) break;
    if (issue_one(*d)) {
      ++issued;
    } else if (!fus_.can_issue(d->op, cycle_)) {
      // Blocked on a busy functional unit: a time-gated condition the
      // fast-forward cannot see through, so the cycle counts as active. A
      // load parked on unresolved older stores, by contrast, is purely
      // state-gated and quiescent.
      fu_blocked = true;
    }
  }
  return issued > 0 || fu_blocked;
}

bool SmtCore::issue_one(DynInst& di) {
  if (!fus_.can_issue(di.op, cycle_)) return false;
  if (di.is_load() && !threads_[di.tid].lsq.older_stores_resolved(di)) return false;

  bool any_spec = false;
  for (u32 s = 0; s < 2; ++s) {
    if (di.src_phys[s] != kInvalidPhysReg && rename_.is_spec(di.src_phys[s])) {
      di.spec_used[s] = true;
      any_spec = true;
    }
  }

  di.issued = true;
  iq_.mark_issued(&di);
  if (trace_ != nullptr) trace_stage("issue", di, any_spec);
  ++stats_.issue_insts;

  if (di.is_load()) {
    fus_.issue(di.op, cycle_);
    issue_load(di);
  } else if (di.is_store()) {
    fus_.issue(di.op, cycle_);
    // Replayed stores keep their resolved address; only the first issue
    // retires the LSQ's unresolved-store count.
    if (!di.addr_resolved) {
      di.addr_resolved = true;
      threads_[di.tid].lsq.note_store_resolved();
    }
    // The store is architecturally complete once both the address is
    // generated and the data has been produced; with the data still in
    // flight the commit stage polls readiness at the ROB head.
    if (di.src_phys[0] == kInvalidPhysReg || rename_.is_ready(di.src_phys[0], cycle_))
      schedule(cycle_ + fus_.timing(di.op).latency, EvKind::kFuComplete, di);
  } else {
    const Cycle done = fus_.issue(di.op, cycle_);
    schedule(done, EvKind::kFuComplete, di);
  }

  // Speculatively issued instructions keep their slot until completion so
  // they can be re-armed by a replay; everything else frees it now.
  if (!any_spec) iq_.remove(&di);
  return true;
}

void SmtCore::issue_load(DynInst& di) {
  ThreadState& ts = threads_[di.tid];
  di.addr_resolved = true;

  if (!di.wrong_path) {
    if (const DynInst* st = ts.lsq.forwarding_store(di); st != nullptr) {
      // Forward from the youngest older overlapping store. Data arrives when
      // both the hit latency has elapsed and the store data exists.
      const Cycle data_at = st->executed ? cycle_ + 2 : cycle_ + 4;
      di.l1_hit = true;
      {
        obs::PhaseScope ps(obs::Phase::kPredict);
        lhp_.update(di.tid, di.pc, true);
      }
      schedule(data_at, EvKind::kLoadFill, di);
      ++stats_.lsq_forwards;
      return;
    }
  }

  DataAccess da;
  {
    obs::PhaseScope ps(obs::Phase::kMemory);
    da = mem_.access_data(di.mem_addr, false, cycle_);
  }
  bool predicted_hit;
  {
    obs::PhaseScope ps(obs::Phase::kPredict);
    predicted_hit = lhp_.predict(di.tid, di.pc);
    lhp_.update(di.tid, di.pc, da.l1_hit);
  }
  di.l1_hit = da.l1_hit;
  const Cycle data_cycle = da.data_ready + 1;  // +1: load-to-use forwarding

  if (da.l1_hit) {
    schedule(data_cycle, EvKind::kLoadFill, di);
    return;
  }

  // Stall-taxonomy segment edges of the miss's latency chain (pure
  // annotation; classify_stall reads them off the ROB head while the load
  // is outstanding).
  di.seg_private_end = da.seg_private;
  di.seg_llc_end = da.seg_llc;
  di.seg_dram_end = da.seg_dram;

  ++(di.wrong_path ? stats_.loads_l1_miss_wp : stats_.loads_l1_miss);
  if (!di.l1_counted) {
    ++ts.outstanding_l1;
    di.l1_counted = true;
  }
  if (predicted_hit && di.dest_phys != kInvalidPhysReg) {
    // Speculative wakeup at hit latency; the mis-speculation is discovered
    // one cycle later and replays any dependent that got away.
    rename_.set_spec_ready(di.dest_phys, cycle_ + 2);
    iq_.wake_waiters(di.dest_phys);
    // The wake marker keeps the maturation cycle visible to the
    // fast-forward: a dependent may issue the moment spec_at arrives.
    schedule(cycle_ + 2, EvKind::kWake, di);
    schedule(cycle_ + 3, EvKind::kLoadReplay, di);
    ++stats_.loads_spec_wakeups;
  }
  if (da.l2_miss) {
    di.is_l2_miss = true;
    di.l2_miss_detect_cycle = da.l2_miss_detect;
    schedule(da.l2_miss_detect, EvKind::kL2MissDetect, di);
    ++(di.wrong_path ? stats_.loads_l2_miss_wp : stats_.loads_l2_miss);
  }
  schedule(data_cycle, EvKind::kLoadFill, di);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

bool SmtCore::try_dispatch_one(ThreadState& ts, ThreadId tid) {
  if (ts.frontend.empty()) return false;
  DynInst& f = ts.frontend.front();
  if (f.fetch_cycle + cfg_.decode_depth > cycle_) return false;
  if (ts.rob.full()) {
    ++stats_.per_cycle.stall_rob;
    return false;
  }
  if (!iq_.has_free()) {
    ++stats_.per_cycle.stall_iq;
    return false;
  }
  if (f.is_mem() && !ts.lsq.has_free()) {
    ++stats_.per_cycle.stall_lsq;
    return false;
  }
  if (!rename_.can_rename(tid, *f.si)) {
    ++stats_.per_cycle.stall_regs;
    return false;
  }
  if (ts.rob.extra() > 0 && ts.rob.size() >= ts.rob.base_capacity() && f.si->has_dest() &&
      cfg_.shared_regfile) {
    // A second-level holder dispatching beyond its first level must leave
    // rename headroom for the other threads.
    const bool fp = is_fp_reg(f.si->dest);
    const u32 free = fp ? rename_.free_fp(tid) : rename_.free_int(tid);
    if (free <= cfg_.second_level_reg_reserve) {
      ++stats_.per_cycle.stall_reg_reserve;
      return false;
    }
  }
  if (cfg_.fetch_policy == FetchPolicyKind::kDcra &&
      !dcra_within_reg_guard(rename_.int_in_use(tid), rename_.int_rename_pool(),
                             rename_.fp_in_use(tid), rename_.fp_rename_pool())) {
    ++stats_.per_cycle.stall_dcra;
    return false;
  }

  DynInst di = std::move(f);
  ts.frontend.pop_front();
  rename_.rename(di);
  di.dispatched = true;
  DynInst& slot = ts.rob.push(std::move(di));
  iq_.insert(&slot);
  if (slot.is_mem()) ts.lsq.push(&slot);
  if (slot.is_ctrl()) ++ts.unresolved_ctrl;
  if (trace_ != nullptr) trace_stage("dispatch", slot);
  ++stats_.dispatch_insts;
  return true;
}

bool SmtCore::do_dispatch() {
  // The one thread ranking of the tick: do_fetch reuses order_.
  for (ThreadId t = 0; t < cfg_.num_threads; ++t)
    icount_[t] = threads_[t].frontend.size() + iq_.occupancy(t);
  fetch_order(cfg_.fetch_policy, icount_, cycle_, order_);
  u32 budget = cfg_.dispatch_width;
  u32 dispatched = 0;
  for (ThreadId t : order_) {
    ThreadState& ts = threads_[t];
    while (budget > 0 && try_dispatch_one(ts, t)) {
      --budget;
      ++dispatched;
    }
  }
  return dispatched > 0;
}

// ---------------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------------

DynInst SmtCore::make_correct_path_inst(ThreadState& ts, ThreadId tid) {
  const ArchOp op = ts.ctx->next();
  const Program& prog = ts.ctx->program();

  DynInst di;
  di.si = op.si;
  di.op = op.si->op;
  di.pc = op.pc;
  di.tid = tid;
  di.mem_addr = op.mem_addr;
  di.taken = op.taken;
  di.actual_target = op.target_pc;

  if (di.is_ctrl()) {
    const BasicBlock& bb = prog.block(op.block);
    const Addr fallthrough_pc = ts.ctx->block_pc(bb.fallthrough);
    const Addr static_target =
        di.op == OpClass::kReturn ? 0 : ts.ctx->block_pc(op.si->taken_block);
    {
      obs::PhaseScope ps(obs::Phase::kPredict);
      di.pred = bpred_.predict(tid, *op.si, static_target, fallthrough_pc, fallthrough_pc);
    }

    di.mispredicted =
        (di.pred.taken != di.taken) || (di.pred.target != di.actual_target);
    if (di.mispredicted) {
      ts.wrong_path = true;
      ts.wp_index = 0;
      ts.wp_dead = false;
      if (di.op == OpClass::kBranch) {
        ts.wp_block = di.pred.taken ? op.si->taken_block : bb.fallthrough;
      } else {  // mispredicted return: steer by the (wrong) RAS target
        if (const u32* block = ts.block_of_pc.find(di.pred.target))
          ts.wp_block = *block;
        else
          ts.wp_dead = true;
      }
      ++stats_.mispredicts_fetched;
    }
  }
  return di;
}

DynInst SmtCore::make_wrong_path_inst(ThreadState& ts, ThreadId tid) {
  const Program& prog = ts.ctx->program();
  const BasicBlock& bb = prog.block(ts.wp_block);
  const StaticInst& si = bb.insts[ts.wp_index];

  DynInst di;
  di.si = &si;
  di.op = si.op;
  di.pc = si.pc;
  di.tid = tid;
  di.wrong_path = true;

  if (is_memory(si.op)) {
    // Plausible-locality pseudo address: same region the static instruction
    // touches on the correct path, random offset; generator state untouched.
    const AddrGenSpec& spec = ts.ctx->benchmark().agens[static_cast<u32>(si.agen_id)];
    const u64 region = std::max<u64>(8, spec.region_bytes);
    di.mem_addr = ts.ctx->addr_space_base() + spec.base + (wp_rng_.next() % region & ~7ULL);
  }

  // Advance the cursor. Control flow follows the *prediction* (there is no
  // architectural truth down here), so wrong-path branches never "mispredict".
  u32 next_block = ts.wp_block;
  u32 next_index = ts.wp_index + 1;
  if (is_control(si.op)) {
    const Addr fallthrough_pc = ts.ctx->block_pc(bb.fallthrough);
    const Addr static_target =
        si.op == OpClass::kReturn ? 0 : ts.ctx->block_pc(si.taken_block);
    {
      obs::PhaseScope ps(obs::Phase::kPredict);
      di.pred = bpred_.predict(tid, si, static_target, fallthrough_pc, fallthrough_pc);
    }
    di.taken = di.pred.taken;
    di.actual_target = di.pred.target;
    if (si.op == OpClass::kReturn) {
      const u32* block = ts.block_of_pc.find(di.pred.target);
      if (block == nullptr) {
        ts.wp_dead = true;  // fell off the CFG; stall until the squash
        return di;
      }
      next_block = *block;
    } else {
      next_block = di.pred.taken ? si.taken_block : bb.fallthrough;
    }
    next_index = 0;
  } else if (next_index == bb.insts.size()) {
    next_block = bb.fallthrough;
    next_index = 0;
  }
  ts.wp_block = next_block;
  ts.wp_index = next_index;
  return di;
}

bool SmtCore::fetch_one(ThreadState& ts, ThreadId tid) {
  DynInst di =
      ts.wrong_path ? make_wrong_path_inst(ts, tid) : make_correct_path_inst(ts, tid);

  Cycle iready;
  {
    obs::PhaseScope ps(obs::Phase::kMemory);
    iready = mem_.access_inst(icache_addr(ts, di.pc), cycle_);
  }
  di.fetch_cycle = std::max(cycle_, iready);
  if (iready > cycle_) {
    ts.fetch_stall_until = iready;
    ++stats_.fetch_icache_stalls;
  }

  di.seq = next_seq_++;
  di.tseq = ts.next_tseq++;
  if (trace_ != nullptr) trace_stage("fetch", di);
  ts.frontend.push_back(std::move(di));
  ++(ts.frontend.back().wrong_path ? stats_.fetch_wrong_path : stats_.fetch_insts);
  return true;
}

bool SmtCore::do_fetch() {
  // order_ is do_dispatch's. Dispatch moves instructions from a thread's
  // frontend into the issue queue, so every ICOUNT key (frontend + IQ count)
  // is what dispatch ranked by: a re-rank would rebuild the same order.
  // Dispatch changes no outstanding-miss count either.

  u32 budget = cfg_.fetch_width;
  u32 threads_fetched = 0;
  u32 fetched = 0;
  for (ThreadId t : order_) {
    if (budget == 0 || threads_fetched >= cfg_.fetch_threads) break;
    ThreadState& ts = threads_[t];
    if (ts.fetch_stall_until > cycle_) continue;
    if (ts.wrong_path && ts.wp_dead) continue;
    if (ts.frontend.size() >= cfg_.frontend_buffer) continue;
    if (gates_fetch_on_l2_miss(cfg_.fetch_policy) && ts.outstanding_l2 > 0) {
      ++stats_.per_cycle.policy_gated;
      continue;
    }

    bool fetched_any = false;
    while (budget > 0 && ts.frontend.size() < cfg_.frontend_buffer) {
      if (!fetch_one(ts, t)) break;
      fetched_any = true;
      --budget;
      ++fetched;
      const DynInst& last = ts.frontend.back();
      if (last.is_ctrl() && last.pred.taken) break;  // redirect: resume next cycle
      if (ts.wrong_path && ts.wp_dead) break;
      if (ts.fetch_stall_until > cycle_) break;  // I-cache miss mid-run
    }
    if (fetched_any) ++threads_fetched;
  }
  return fetched > 0;
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

bool SmtCore::do_early_release() {
  // Sharkey & Ponomarev [24]: while a thread waits on an L2 miss and has no
  // unresolved control flow in its window (so nothing can be squashed), any
  // previous mapping whose value exists and has been read by every renamed
  // consumer is dead — the redefining instruction will commit — and can be
  // released before that commit.
  u32 released = 0;
  for (ThreadId t = 0; t < cfg_.num_threads; ++t) {
    ThreadState& ts = threads_[t];
    if (ts.outstanding_l2 == 0 || ts.unresolved_ctrl > 0) continue;
    ts.rob.for_each([&](DynInst& d) {
      if (!d.dispatched || d.prev_dest_phys == kInvalidPhysReg || d.prev_freed_early)
        return;
      if (rename_.pending_readers(d.prev_dest_phys) != 0) return;
      if (!rename_.is_value_ready(d.prev_dest_phys)) return;
      rename_.early_free_prev(d);
      ++stats_.early_released;
      ++released;
    });
  }
  return released > 0;
}

bool SmtCore::tick() {
  per_cycle_base_ = stats_.per_cycle;

  // Commit baseline for the stall taxonomy's kCommit detection (on only with
  // the sampler; one predictable branch otherwise).
  if (sample_every_ != 0)
    for (ThreadId t = 0; t < cfg_.num_threads; ++t)
      commit_base_scratch_[t] = threads_[t].committed;

  bool active = false;
  obs::enter(obs::Phase::kEvents);
  if (process_events()) active = true;
  obs::enter(obs::Phase::kCommit);
  if (do_commit()) active = true;
  obs::enter(obs::Phase::kIssue);
  if (do_issue()) active = true;
  obs::enter(obs::Phase::kDispatch);
  if (do_dispatch()) active = true;
  obs::enter(obs::Phase::kFetch);
  if (do_fetch()) active = true;
  if (cfg_.early_register_release) {
    obs::enter(obs::Phase::kEarlyRelease);
    if (do_early_release()) active = true;
  }
  obs::enter(obs::Phase::kController);
  if (rob_ctrl_->tick(cycle_)) active = true;
  // Audit after the policy tick: maybe_release has run, so a granted window
  // whose justifying load completed this cycle has been revoked and any
  // surviving grant must be trigger-backed (see second_level_check.cpp).
  if (auditor_.enabled()) {
    obs::enter(obs::Phase::kAudit);
    auditor_.run_span(*this, cycle_, cycle_ + 1);
  }
  // Observability, after every stage has settled. Ownership transitions only
  // happen in state-changing ticks, so polling per executed tick sees every
  // tenure edge; the sampler compare is the whole per-tick cost when off.
  obs::enter(obs::Phase::kSample);
  if (trace_ != nullptr) poll_second_level();
  // Stall taxonomy: attribute the cycle just simulated before the sampler
  // runs, so a sample labelled L carries the attribution through cycle L-1.
  if (sample_every_ != 0) attribute_tick();
  if (sample_every_ != 0 && cycle_ + 1 == next_sample_) {
    record_sample(next_sample_);
    next_sample_ += sample_every_;
  }
  obs::enter(obs::Phase::kLoop);
  ++cycle_;
  idle_from_ = cycle_;
  return active;
}

obs::StallClass SmtCore::classify_stall(ThreadId t, Cycle c, bool committed_now) const {
  using obs::StallClass;
  if (committed_now) return StallClass::kCommit;
  const ThreadState& ts = threads_[t];
  if (ts.rob.empty()) return StallClass::kFrontend;
  const DynInst& h = *ts.rob.head();
  // Head done but not yet retired: commit-bandwidth / retirement-order bound.
  if (h.executed) return StallClass::kCommit;
  if (h.is_load() && h.issued) {
    // In-flight load at the head: segment the wait by the latency chain's
    // recorded edges. Loads that never left the private hierarchy (LSQ
    // forwards, L1 hits, legacy-channel fills) carry all-equal edges and
    // attribute entirely to the private bucket.
    if (c < h.seg_private_end) return StallClass::kMemPrivate;
    if (c < h.seg_llc_end) return StallClass::kMemLlc;
    if (c < h.seg_dram_end) return StallClass::kMemDram;
    // Tail past the last edge (bus transfer + load-to-use delivery): bus time
    // when the chain had a DRAM segment, else it stays with the deepest level
    // the chain reached.
    if (h.seg_dram_end > h.seg_llc_end) return StallClass::kMemBus;
    if (h.seg_llc_end > h.seg_private_end) return StallClass::kMemLlc;
    return StallClass::kMemPrivate;
  }
  // A registered long-latency candidate without the second-level grant: the
  // thread is holding out for (or has been denied) the big window.
  if (rob_ctrl_->has_pending_candidate(t) && !second_.owned_by(t))
    return StallClass::kRob2Wait;
  return StallClass::kOther;
}

void SmtCore::attribute_tick() {
  for (ThreadId t = 0; t < cfg_.num_threads; ++t) {
    const bool committed_now = threads_[t].committed != commit_base_scratch_[t];
    ++stall_cycles_[t][static_cast<size_t>(classify_stall(t, cycle_, committed_now))];
  }
}

void SmtCore::attribute_idle_span(Cycle from, Cycle to) {
  if (from >= to) return;
  for (ThreadId t = 0; t < cfg_.num_threads; ++t) {
    // Inside an idle span every classification input is frozen except the
    // cycle index, which only enters through the head load's segment edges —
    // integrate piecewise over the edges that fall inside [from, to).
    const ThreadState& ts = threads_[t];
    Cycle c = from;
    while (c < to) {
      Cycle end = to;
      if (!ts.rob.empty()) {
        const DynInst& h = *ts.rob.head();
        if (h.is_load() && h.issued && !h.executed)
          for (const Cycle edge : {h.seg_private_end, h.seg_llc_end, h.seg_dram_end})
            if (edge > c && edge < end) end = edge;
      }
      stall_cycles_[t][static_cast<size_t>(classify_stall(t, c, false))] += end - c;
      c = end;
    }
  }
}

Cycle SmtCore::idle_wake(Cycle limit) {
  // The tick just executed (at cycle_ - 1) was provably a no-op: no event
  // fired, nothing committed / issued / dispatched / fetched / released, and
  // the ROB controller made no state change. Every condition that could end
  // the quiet spell is time-gated and enumerable:
  //   - the next scheduled event (fills, completions, wake markers),
  //   - a frontend head reaching decode maturity,
  //   - a fetch stall (I-cache miss / post-squash redirect) expiring,
  //   - the controller's next re-check that can grant or drop, or its next
  //     phase boundary (a re-check that repeats its candidate's recorded
  //     outcome is no boundary: see TwoLevelRobController::next_wake).
  // (Nothing memory-side: the latency-chain model resolves every LLC/DRAM
  // access at issue time, so the shared backend never wakes a core on its
  // own — the completion is already in this core's wheel.)
  // Until the earliest of those, every tick repeats this one exactly — same
  // stalls, same counters, no state change.
  const Cycle now = cycle_ - 1;
  Cycle wake = limit;
  wake = std::min(wake, wheel_.next_event_or(kNeverCycle));
  wake = std::min(wake, rob_ctrl_->next_wake(now));
  for (const ThreadState& ts : threads_) {
    if (!ts.frontend.empty()) {
      const Cycle mature = ts.frontend.front().fetch_cycle + cfg_.decode_depth;
      if (mature > now) wake = std::min(wake, mature);
    }
    if (ts.fetch_stall_until > now) wake = std::min(wake, ts.fetch_stall_until);
  }
  return wake;
}

void SmtCore::replay_idle_to(Cycle wake) {
  // A skippable cycle is by definition one in which no machine state
  // changes, so every audit point inside the skipped span would have seen
  // exactly the state visible now: audit the whole span once per tier, also
  // when sample points split its replay (advance_idle_to).
  if (auditor_.enabled()) {
    const obs::PhaseScope ps(obs::Phase::kAudit);
    auditor_.run_span(*this, idle_from_, wake);
  }
  advance_idle_to(wake);
}

void SmtCore::advance_idle_to(Cycle to) {
  if (sample_every_ != 0) {
    // Replay the sample points (label L is the state after cycle L-1),
    // interleaving the taxonomy: a sample labelled L must carry the
    // attribution of every cycle < L, exactly as the tick path orders
    // attribute_tick() before record_sample().
    Cycle attributed = cycle_;
    while (next_sample_ <= to) {
      attribute_idle_span(attributed, next_sample_);
      attributed = next_sample_;
      record_sample(next_sample_);
      next_sample_ += sample_every_;
    }
    attribute_idle_span(attributed, to);
  }

  // The base moves with the counter, so a span replayed in several calls
  // repeats the last tick's delta, not the sum of earlier replays.
  const u64 skipped = to - cycle_;
  for (const auto& f : kCorePerCycleStatFields) {
    u64& counter = stats_.per_cycle.*f.member;
    u64& base = per_cycle_base_.*f.member;
    const u64 replayed = (counter - base) * skipped;
    counter += replayed;
    base += replayed;
  }
  rob_ctrl_->replay_idle_to(to);
  commit_rr_ += skipped;  // do_commit advances the rotation every cycle
  fast_forwarded_ += skipped;
  stats_.fast_forwarded_cycles += skipped;
  cycle_ = to;
}

void SmtCore::attach_chrome_trace(obs::ChromeTraceWriter* writer) {
  trace_ = writer;
  if (trace_ == nullptr) return;
  for (ThreadId t = 0; t < cfg_.num_threads; ++t)
    trace_->set_thread_name(  // appends: GCC 12 -O3 misreads an operator+ chain (PR 105329)
        t, std::string("t").append(std::to_string(t)).append(" ").append(benchmarks_[t].name));
}

void SmtCore::flush_chrome_trace() {
  if (trace_ == nullptr || sl_owner_ == SecondLevelRob::kNoOwner) return;
  // Close the still-open tenure at the current cycle; tracking state is left
  // alone so a subsequent run() continues observing the live grant.
  trace_->complete_event(sl_owner_, "second_level_grant", sl_acquired_, cycle_,
                         {{"trigger_tseq", sl_trigger_}, {"alloc", sl_allocs_}});
}

void SmtCore::poll_second_level() {
  const ThreadId owner = second_.owner();
  const u64 allocs = second_.total_grants();
  if (owner == sl_owner_ && allocs == sl_allocs_) return;
  // A changed allocation count with an unchanged owner is a release and
  // re-grant inside one tick (the controller's maybe_release + acquire) —
  // still one tenure ending and another beginning.
  if (sl_owner_ != SecondLevelRob::kNoOwner)
    trace_->complete_event(sl_owner_, "second_level_grant", sl_acquired_, cycle_,
                           {{"trigger_tseq", sl_trigger_}, {"alloc", sl_allocs_}});
  sl_owner_ = owner;
  sl_allocs_ = allocs;
  if (owner != SecondLevelRob::kNoOwner) {
    sl_acquired_ = second_.acquired_at();
    sl_trigger_ = rob_ctrl_->audit_trigger_tseq(owner);
  }
}

void SmtCore::trace_stage(const char* stage, const DynInst& di, bool spec) {
  if (!trace_->in_instruction_window(cycle_)) return;
  obs::TraceArgs args = {
      {"tseq", di.tseq}, {"pc", di.pc}, {"op", static_cast<u64>(di.op)}};
  if (di.is_mem()) args.push_back({"addr", di.mem_addr});
  if (di.wrong_path) args.push_back({"wp", 1});
  if (spec) args.push_back({"spec", 1});
  trace_->instant_event(di.tid, stage, cycle_, args);
}

void SmtCore::record_sample(Cycle label) {
  obs::IntervalSample s;
  s.cycle = label;
  s.second_level_owner = second_.owner();
  s.iq_occ_total = iq_.occupancy();
  // Shared-backend MSHR occupancy: quiescent state (the pool only mutates
  // inside request calls), so replayed samples see the same value the
  // executed cycle would have.
  s.llc_mshr_occ = shared_ != nullptr ? shared_->inflight_count() : 0;
  s.threads.reserve(cfg_.num_threads);
  for (ThreadId t = 0; t < cfg_.num_threads; ++t) {
    const ThreadState& ts = threads_[t];
    obs::ThreadSample th;
    th.rob_occ = ts.rob.size();
    th.rob_cap = ts.rob.capacity();
    th.iq_occ = iq_.occupancy(t);
    th.lsq_occ = ts.lsq.occupancy();
    // The paper's proxy applied to the whole resident window: not-yet-executed
    // instructions younger than (and including) the ROB head.
    th.dod_proxy =
        ts.rob.empty() ? 0 : ts.rob.count_unexecuted_younger(ts.rob.head()->tseq - 1,
                                                             0xffffffffu);
    th.outstanding_l2 = ts.outstanding_l2;
    th.committed = ts.committed - ts.committed_base;
    th.stall = stall_cycles_[t];
    if (trace_ != nullptr) {
      trace_->counter_event(t, "rob_occ", label, th.rob_occ);
      trace_->counter_event(t, "outstanding_l2", label, th.outstanding_l2);
    }
    s.threads.push_back(th);
  }
  series_.add(std::move(s));
}

u32 SmtCore::audit_now() { return auditor_.run_all(*this); }

void SmtCore::reset_measurement() {
  cycle_base_ = cycle_;
  for (auto& ts : threads_) ts.committed_base = ts.committed;
  // Restarting the holder's tenure moves its lease expiry, a controller
  // input the next re-check decides from.
  second_.reset_accounting(cycle_);
  stats_ = {};
  dod_true_.reset();
  dod_proxy_.reset();
  bpred_.reset_stats();
  rob_ctrl_->reset_stats();
  if (auto* p = rob_ctrl_->predictor()) p->reset_stats();
  mem_.l1i().reset_stats();
  mem_.l1d().reset_stats();
  mem_.l2().reset_stats();
  mem_.channel().reset_stats();
  // CMP: the shared backend is reset once per machine-wide measurement
  // boundary; every core resets at the same lockstep cycle, so the repeats
  // are idempotent.
  if (shared_ != nullptr) shared_->reset_stats();
  // Drop warmup-era samples; next_sample_ keeps its absolute alignment so the
  // measured series stays on the same cycle grid regardless of warmup length.
  series_.reset();
  for (auto& a : stall_cycles_) a.fill(0);
}

RunResult SmtCore::run(u64 commit_target, u64 max_cycles, u64 warmup_insts) {
  SmtCore* const self = this;
  run_lockstep({&self, 1}, commit_target, max_cycles, warmup_insts);
  return snapshot_result();
}

void run_lockstep(std::span<SmtCore* const> cores, u64 commit_target, u64 max_cycles,
                  u64 warmup_insts) {
  if (max_cycles == 0) max_cycles = default_cycle_cap(commit_target, warmup_insts);
  // A core pinned by a test pins the whole machine: nobody sleeps.
  const bool pinned = std::ranges::any_of(cores, &SmtCore::pinned);
  Cycle now = cores.front()->now();  // the machine clock; every core starts on it
  // A core whose tick was idle sleeps until its own wake bound: sound because
  // the shared backend never wakes a core or writes its private state
  // (latency chain), so peers cannot end its quiet spell. 0 = awake.
  std::vector<Cycle> wake(cores.size(), 0);

  auto fastest_measured = [cores] {
    u64 best = 0;
    for (const SmtCore* c : cores) best = std::max(best, c->fastest_measured());
    return best;
  };
  auto step = [&] {
    // Cores take their slots in index order (the deterministic interleaving
    // of shared LLC/DRAM requests); `next` is the next cycle any core needs
    // a slot in.
    Cycle next = max_cycles;
    for (size_t i = 0; i < cores.size(); ++i) {
      SmtCore& c = *cores[i];
      if (wake[i] > now) {
        // Asleep. A sample reads the shared MSHR pool, which peers change, so
        // the sample labelled L is taken in this core's slot of cycle L - 1,
        // as its idle tick would have taken it.
        if (c.sample_slot() == now) c.advance_idle_to(now + 1);
        next = std::min({next, wake[i], c.sample_slot()});
        continue;
      }
      if (wake[i] != 0) {
        c.replay_idle_to(now);
        wake[i] = 0;
      }
      const Cycle w = c.tick() || pinned ? now + 1 : c.idle_wake(max_cycles);
      if (w <= now + 1) {
        next = now + 1;
        continue;
      }
      wake[i] = w;
      next = std::min({next, w, c.sample_slot()});
    }
    now = next;
  };
  // Brings every sleeping core up to the machine clock, awake.
  auto wake_all = [&] {
    for (size_t i = 0; i < cores.size(); ++i)
      if (wake[i] != 0) {
        cores[i]->replay_idle_to(now);
        wake[i] = 0;
      }
  };

  if (warmup_insts > 0) {
    while (now < max_cycles && fastest_measured() < warmup_insts) step();
    // The reset moves the partition holder's lease clock, so every core
    // resets on the machine clock and ticks the first measured cycle; each
    // also resets the shared backend's stats (idempotent repeats).
    wake_all();
    for (SmtCore* c : cores) c->reset_measurement();
  }
  while (now < max_cycles && fastest_measured() < commit_target) step();
  wake_all();
  for (SmtCore* c : cores) c->flush_chrome_trace();
}

RunResult SmtCore::snapshot_result() const {
  RunResult r;
  const Cycle measured_cycles = cycle_ - cycle_base_;
  r.cycles = measured_cycles;
  for (ThreadId t = 0; t < cfg_.num_threads; ++t) {
    ThreadResult tr;
    tr.benchmark = benchmarks_[t].name;
    tr.committed = threads_[t].committed - threads_[t].committed_base;
    tr.ipc = measured_cycles == 0
                 ? 0.0
                 : static_cast<double>(tr.committed) / static_cast<double>(measured_cycles);
    r.threads.push_back(tr);
  }
  r.dod_true = dod_true_;
  r.dod_proxy = dod_proxy_;
  r.samples = series_;
  if (sample_every_ != 0) r.stall_cycles = stall_cycles_;

  auto& c = r.counters;
  export_stats(c, "core.", stats_.per_cycle, kCorePerCycleStatFields);
  export_stats(c, "core.", stats_, kCoreStatFields);
  export_stats(c, "bpred.", bpred_.stats(), kBranchStatFields);
  export_stats(c, "rob.", rob_ctrl_->stats(), kRobControllerStatFields);
  // The partition's ledger; an open tenure counts up to now.
  c["rob.allocations"] = second_.total_grants();
  export_family(c, "rob.allocations.t", second_.grants(), thread_base_);
  export_family(c, "rob.busy.t", second_.held_cycles(cycle_), thread_base_);
  c["rob2.busy_cycles"] = second_.busy_cycles(cycle_);
  if (const DodPredictor* p = std::as_const(*rob_ctrl_).predictor())
    export_stats(c, "dodpred.", p->stats(), kDodPredictorStatFields);
  export_stats(c, "l1i.", mem_.l1i().stats(), kCacheStatFields);
  export_stats(c, "l1d.", mem_.l1d().stats(), kCacheStatFields);
  export_stats(c, "l2.", mem_.l2().stats(), kCacheStatFields);
  // Behind a shared backend the private channel is unused (llc.*/dram.* instead).
  if (shared_ == nullptr)
    export_stats(c, "channel.", mem_.channel().stats(), kMemoryChannelStatFields);
  if (auditor_.enabled()) {
    export_stats(c, "audit.", auditor_.stats(), kAuditStatFields);
    for (size_t k = 0; k < kViolationKinds.size(); ++k)
      c[std::string("audit.violations.") + kViolationKinds[k]] = auditor_.violations_by_kind()[k];
  }
  // Instruction sources merge last: the default hook is a no-op, so purely
  // synthetic runs produce exactly the counter set they always did. Like the
  // families above, sources report under the machine-global thread index,
  // so CMP cores never collide.
  for (ThreadId t = 0; t < cfg_.num_threads; ++t)
    threads_[t].ctx->append_source_counters(thread_base_ + t, r.counters);
  return r;
}

}  // namespace tlrob

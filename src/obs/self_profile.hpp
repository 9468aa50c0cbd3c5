// Host-side simulator self-profiling: attributes wall-clock time to the
// pipeline phases of the cycle loop (event drain, commit, issue, dispatch,
// fetch, early release, ROB-controller tick, audit, interval sampling, and
// the run loop around them), so "why is this configuration slow to
// simulate" is answerable without an external profiler.
//
// Sampling, not timing. The simulating thread announces what it is doing by
// storing a Phase into a thread-local byte (obs::enter, one relaxed store:
// a single %fs-relative mov, with or without a profiler). A SelfProfiler
// starts one host thread that reads the creating thread's byte every
// kSamplePeriod and counts one sample for whichever phase it finds. Each
// sample lands in exactly one phase, so nested phases (kMemory / kPredict
// inside a stage, via PhaseScope) need no subtraction, and the table covers
// the whole profiled wall time, run loop and fast-forward included.
//
// A sampler thread rather than a SIGPROF timer: it needs no async-signal
// safety on the sinks, never interrupts a system call, runs unchanged under
// ASan and TSan, and is not limited to the scheduler-tick resolution of
// process CPU timers. A SelfProfiler is not thread-safe and samples only the
// thread that constructed it.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <ostream>
#include <thread>

#include "common/types.hpp"

namespace tlrob::obs {

enum class Phase : u8 {
  kEvents,        // event-wheel drain (completions, fills, miss detections)
  kCommit,
  kIssue,
  kDispatch,
  kFetch,
  kEarlyRelease,  // optional Sharkey-Ponomarev early register release
  kController,    // TwoLevelRobController::tick
  kAudit,         // invariant checks
  kSample,        // observability: ownership poll, stall taxonomy, sampler
  kMemory,        // memory-hierarchy accesses, inside a stage
  kPredict,       // branch/load-hit predictor calls, inside a stage
  kLoop,          // outside any stage: run loop, fast-forward, setup
  kCount,
};

const char* phase_name(Phase p);

/// What the current thread is doing. Written by the simulated core, read by
/// a SelfProfiler's sampler thread; nothing else depends on it.
inline constinit thread_local std::atomic<Phase> current_phase{Phase::kLoop};

inline void enter(Phase p) { current_phase.store(p, std::memory_order_relaxed); }

/// Enters `p` for the scope's lifetime, then restores the enclosing phase.
class PhaseScope {
 public:
  explicit PhaseScope(Phase p) : saved_(current_phase.load(std::memory_order_relaxed)) {
    enter(p);
  }
  ~PhaseScope() { enter(saved_); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Phase saved_;
};

/// Samples the constructing thread's current phase every kSamplePeriod until
/// stop() or destruction.
class SelfProfiler {
 public:
  static constexpr std::chrono::microseconds kSamplePeriod{250};

  SelfProfiler();
  ~SelfProfiler() { stop(); }
  SelfProfiler(const SelfProfiler&) = delete;
  SelfProfiler& operator=(const SelfProfiler&) = delete;

  /// Joins the sampler thread and fixes the wall time; idempotent. The
  /// accessors below read the final counts only after stop().
  void stop();

  u64 samples(Phase p) const { return samples_[static_cast<size_t>(p)]; }
  u64 total_samples() const;
  /// Wall time from construction to stop(), the span the samples cover.
  double wall_seconds() const { return wall_seconds_; }

  /// Summary table: per phase, samples, share of all samples, ms (share x
  /// wall) and ns per executed cycle (`executed_cycles`: ticks actually run
  /// over the profiled span, i.e. cycles minus the fast-forwarded ones).
  void print(std::ostream& os, u64 executed_cycles) const;

 private:
  const std::atomic<Phase>* target_;
  std::atomic<bool> stopping_{false};
  std::array<u64, static_cast<size_t>(Phase::kCount)> samples_{};
  std::chrono::steady_clock::time_point start_;
  double wall_seconds_ = 0.0;
  std::thread sampler_;
};

}  // namespace tlrob::obs

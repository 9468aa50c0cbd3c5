// Work-stealing thread pool — the one threading substrate in the repo.
//
// The campaign runner (runner/engine.cpp) fans independent jobs out across
// `--jobs` workers on it.
//
// Each worker owns a deque: it pushes/pops its own work LIFO (cache-warm)
// and steals FIFO from the other end of a victim's deque (oldest job first,
// the classic Blumofe–Leiserson discipline). External submissions are dealt
// round-robin across the workers. The implementation favours being obviously
// correct under TSan over lock-free cleverness — campaign jobs run for
// milliseconds to minutes, so per-deque mutexes are nowhere near the
// bottleneck.
//
// Lock discipline (statically checked under Clang via -Wthread-safety and
// the tlrob::Mutex capability annotations): every shared field names the
// mutex that guards it, per-worker deques are guarded by their worker's own
// mu, and the pool-wide accounting (unfinished_, next_victim_, stopping_)
// by state_mu_. A worker never holds two locks at once except submit/steal
// taking state_mu_ then one worker mu, which is the fixed acquisition order.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "common/types.hpp"

namespace tlrob {

class WorkStealingPool {
 public:
  /// `threads` = 0 selects hardware concurrency (at least 1).
  explicit WorkStealingPool(u32 threads = 0);

  /// Drains remaining work, then joins the workers.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Enqueues a task. Safe from any thread, including pool workers (a
  /// worker submits to its own deque, which is what makes recursive
  /// fan-out work-stealing rather than FIFO).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  u32 size() const { return static_cast<u32>(workers_.size()); }

  /// Resolves the 0 = hardware default the same way the constructor does.
  static u32 resolve_threads(u32 threads);

 private:
  struct Worker {
    Mutex mu;  // guards this worker's deque only
    std::deque<std::function<void()>> deque TLROB_GUARDED_BY(mu);
  };

  void worker_loop(u32 self);
  bool take_task(u32 self, std::function<void()>& out);

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;

  Mutex state_mu_;  // guards the pool-wide accounting below
  CondVar work_cv_;  // workers sleep here when starved
  CondVar idle_cv_;  // wait_idle sleeps here
  u64 unfinished_ TLROB_GUARDED_BY(state_mu_) = 0;   // submitted, not yet completed
  u64 next_victim_ TLROB_GUARDED_BY(state_mu_) = 0;  // round-robin submit cursor
  bool stopping_ TLROB_GUARDED_BY(state_mu_) = false;
};

}  // namespace tlrob

// Thread pool — the one threading substrate in the repo.
//
// The campaign runner (runner/engine.cpp) runs its cells on `--jobs`
// workers. Workers take tasks from one FIFO queue, so tasks start in
// submission order, and a one-worker pool runs them serially in that order.
// One mutex guards the queue, the unfinished count and the stop flag
// (statically checked under Clang via -Wthread-safety and the tlrob::Mutex
// capability annotations); idle workers and wait_idle() block on condition
// variables bound to it.
#pragma once

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "common/types.hpp"

namespace tlrob {

class ThreadPool {
 public:
  /// `threads` = 0 selects hardware concurrency (at least 1).
  explicit ThreadPool(u32 threads = 0);

  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Queues a task behind every task queued before it. Safe from any
  /// thread, including from inside a running task.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  u32 size() const { return static_cast<u32>(workers_.size()); }

  /// Resolves the 0 = hardware default the same way the constructor does.
  static u32 resolve_threads(u32 threads);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;  // workers sleep here while the queue is empty
  CondVar idle_cv_;  // wait_idle sleeps here
  std::deque<std::function<void()>> queue_ TLROB_GUARDED_BY(mu_);
  u64 unfinished_ TLROB_GUARDED_BY(mu_) = 0;  // submitted, not yet completed
  bool stopping_ TLROB_GUARDED_BY(mu_) = false;
};

/// perfbench/perfbench.cpp still names the pool by its old name; the next
/// benchmark-only change renames it there and deletes this alias.
using WorkStealingPool = ThreadPool;

}  // namespace tlrob

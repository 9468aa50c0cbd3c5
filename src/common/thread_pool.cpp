#include "common/thread_pool.hpp"

namespace tlrob {

u32 ThreadPool::resolve_threads(u32 threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<u32>(hw);
}

ThreadPool::ThreadPool(u32 threads) {
  const u32 n = resolve_threads(threads);
  workers_.reserve(n);
  for (u32 i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    ++unfinished_;
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !stopping_) work_cv_.wait(lock);
      if (queue_.empty()) return;  // stopping, and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    MutexLock lock(mu_);
    if (--unfinished_ == 0) idle_cv_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  MutexLock lock(mu_);
  while (unfinished_ != 0) idle_cv_.wait(lock);
}

}  // namespace tlrob

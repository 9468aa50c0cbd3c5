// Annotated synchronisation primitives.
//
// Thin, zero-overhead wrappers over the std primitives that carry the Clang
// thread-safety capability attributes (common/thread_annotations.hpp).
// std::mutex itself is unannotated, so code locking it directly gets no
// static checking; everything concurrent in this repo (the campaign pool,
// the in-order emitter, the single-thread-IPC memo) locks through these
// types instead, which is what lets the static-analysis CI job compile with
// -Werror=thread-safety and actually prove the lock discipline.
//
// The deliberate omissions are part of the contract:
//   - No public lock()/unlock() free-calling style: tlrob-lint rule C2
//     forbids naked .lock()/.unlock() in concurrent modules, so the only
//     way to hold a Mutex is a scoped MutexLock (RAII; exception-safe).
//   - No timed/shared variants until something needs them — a smaller
//     vocabulary is easier to lint and to reason about.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hpp"

namespace tlrob {

/// Annotated exclusive lock. Lock it with MutexLock; the raw lock()/unlock()
/// surface exists for the analysis and for MutexLock, not for callers.
class TLROB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // tlrob-lint: allow(C2) RAII wrapper internals: MutexLock is the sole caller.
  void lock() TLROB_ACQUIRE() { m_.lock(); }
  // tlrob-lint: allow(C2) RAII wrapper internals: MutexLock is the sole caller.
  void unlock() TLROB_RELEASE() { m_.unlock(); }

 private:
  friend class MutexLock;
  friend class CondVar;
  // tlrob-lint: allow(C1) the wrapper's own capability state, not guarded data.
  std::mutex m_;
};

/// Scoped lock over Mutex (the only sanctioned way to hold one).
class TLROB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TLROB_ACQUIRE(mu) : lk_(mu.m_) {}
  ~MutexLock() TLROB_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lk_;
};

/// Condition variable bound to Mutex/MutexLock. wait()/wait_for() require
/// the caller to hold the lock they pass (enforced at compile time under
/// Clang by MutexLock's scoped capability); the lock is released for the
/// duration of the block and reacquired before return, exactly like
/// std::condition_variable.
class CondVar {
 public:
  void wait(MutexLock& lock) { cv_.wait(lock.lk_); }

  template <typename Rep, typename Period>
  void wait_for(MutexLock& lock, const std::chrono::duration<Rep, Period>& dur) {
    cv_.wait_for(lock.lk_, dur);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace tlrob

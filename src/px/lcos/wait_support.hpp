// px/lcos/wait_support.hpp
// The one waiting mechanism shared by every LCO. A waiter is either a px
// task (suspended fiber, woken through the scheduler's wake protocol) or an
// external OS thread (blocked on a stack-allocated mutex/condvar pair).
//
// Lifetime rule for external waiters: the notifier signals *while holding*
// the waiter's mutex, and the waiter re-acquires that mutex before its stack
// frame can unwind — so the notifier never touches a dead frame.
#pragma once

#include <condition_variable>
#include <mutex>
#include <vector>

#include "px/runtime/scheduler.hpp"
#include "px/runtime/worker.hpp"
#include "px/support/assert.hpp"
#include "px/support/spin.hpp"

namespace px::lcos::detail {

struct external_slot {
  std::mutex m;
  std::condition_variable cv;
  bool signaled = false;
};

class waiter {
 public:
  static waiter from_task(rt::task* t) noexcept {
    waiter w;
    w.task_ = t;
    return w;
  }
  static waiter from_external(external_slot* slot) noexcept {
    waiter w;
    w.slot_ = slot;
    return w;
  }

  // Wakes the waiter. For external waiters this is safe to call exactly
  // once; for task waiters the scheduler's one-wake-per-suspension rule
  // applies (the caller must have removed the waiter from its list first).
  void notify() {
    if (task_ != nullptr) {
      task_->owner->wake(task_);
    } else {
      std::lock_guard<std::mutex> lock(slot_->m);
      slot_->signaled = true;
      slot_->cv.notify_one();
    }
  }

 private:
  rt::task* task_ = nullptr;
  external_slot* slot_ = nullptr;
};

// One wait: registers the caller in `waiters` (anything with
// push_back(waiter)) and releases `lock` (held on entry; a px::spinlock or
// any BasicLockable guarding the LCO state), then suspends the current px
// task, or blocks the OS thread when not on one, until notified. Returns
// with `lock` held again. Every LCO wait goes through here; like every
// task suspension it aborts inside a direct action's handler.
template <typename Lock, typename Waiters>
void wait_once(Lock& lock, Waiters& waiters) {
  rt::assert_not_in_direct_handler();
  rt::worker* w = rt::worker::current();
  if (w != nullptr && w->current_task() != nullptr) {
    waiters.push_back(waiter::from_task(w->current_task()));
    lock.unlock();
    w->suspend_current();
    lock.lock();
    return;
  }
  external_slot slot;
  waiters.push_back(waiter::from_external(&slot));
  lock.unlock();
  {
    std::unique_lock<std::mutex> slot_lock(slot.m);
    slot.cv.wait(slot_lock, [&] { return slot.signaled; });
  }
  lock.lock();
}

// Blocks the caller until `pred()` holds; `lock` and `waiters` as for
// wait_once. Aborts inside a direct action's handler even when `pred()`
// already holds, so a handler that reads an LCO fails every time, not
// only when the value happens to be late.
template <typename Lock, typename Waiters, typename Pred>
void wait_until(Lock& lock, Waiters& waiters, Pred&& pred) {
  rt::assert_not_in_direct_handler();
  while (!pred()) wait_once(lock, waiters);
}

// Pops all registered waiters (under the LCO lock) for notification after
// the lock is dropped. Notifying outside the lock avoids lock-ordering
// cycles with the scheduler queues.
[[nodiscard]] inline std::vector<waiter> take_all(
    std::vector<waiter>& waiters) {
  std::vector<waiter> out;
  out.swap(waiters);
  return out;
}

inline void notify_all(std::vector<waiter>&& waiters) {
  for (auto& w : waiters) w.notify();
}

}  // namespace px::lcos::detail

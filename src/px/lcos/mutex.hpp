// px/lcos/mutex.hpp
// Fiber-suspending mutex and condition variable. A px task holding no lock
// across suspension points can use px::spinlock; these are for critical
// sections that may suspend (e.g. waiting on a future while holding state).
#pragma once

#include <deque>

#include "px/lcos/wait_support.hpp"

namespace px {

class mutex {
 public:
  mutex() = default;
  mutex(mutex const&) = delete;
  mutex& operator=(mutex const&) = delete;

  void lock() {
    state_lock_.lock();
    for (;;) {
      if (!held_) {
        held_ = true;
        state_lock_.unlock();
        return;
      }
      lcos::detail::wait_once(state_lock_, fifo_);
    }
  }

  [[nodiscard]] bool try_lock() {
    std::lock_guard<spinlock> guard(state_lock_);
    if (held_) return false;
    held_ = true;
    return true;
  }

  void unlock() {
    state_lock_.lock();
    PX_ASSERT_MSG(held_, "unlock of an unheld px::mutex");
    held_ = false;
    if (fifo_.empty()) {
      state_lock_.unlock();
      return;
    }
    auto next = fifo_.front();
    fifo_.pop_front();
    state_lock_.unlock();
    next.notify();  // woken waiter re-contends in its lock() loop
  }

 private:
  spinlock state_lock_;
  bool held_ = false;
  std::deque<lcos::detail::waiter> fifo_;
};

// Condition variable working with px::mutex. Waiters re-acquire the mutex
// before returning, as with std::condition_variable.
class condition_variable {
 public:
  condition_variable() = default;
  condition_variable(condition_variable const&) = delete;
  condition_variable& operator=(condition_variable const&) = delete;

  void wait(std::unique_lock<px::mutex>& lock) {
    PX_ASSERT(lock.owns_lock());
    state_lock_.lock();
    // state_lock_ is held from before the mutex is released until
    // wait_once has registered us, so a notify after the release cannot
    // miss this waiter.
    lock.unlock();
    lcos::detail::wait_once(state_lock_, waiters_);
    state_lock_.unlock();
    lock.lock();
  }

  template <typename Pred>
  void wait(std::unique_lock<px::mutex>& lock, Pred pred) {
    while (!pred()) wait(lock);
  }

  void notify_one() {
    state_lock_.lock();
    if (waiters_.empty()) {
      state_lock_.unlock();
      return;
    }
    auto w = waiters_.front();
    waiters_.pop_front();
    state_lock_.unlock();
    w.notify();
  }

  void notify_all() {
    state_lock_.lock();
    std::deque<lcos::detail::waiter> all;
    all.swap(waiters_);
    state_lock_.unlock();
    for (auto& w : all) w.notify();
  }

 private:
  spinlock state_lock_;
  std::deque<lcos::detail::waiter> waiters_;
};

}  // namespace px

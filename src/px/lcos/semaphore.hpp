// px/lcos/semaphore.hpp
// Counting semaphore whose acquire() suspends the px task rather than the
// OS thread. Releases wake waiters FIFO.
#pragma once

#include <cstddef>
#include <deque>

#include "px/lcos/wait_support.hpp"

namespace px {

class counting_semaphore {
 public:
  explicit counting_semaphore(std::ptrdiff_t initial) : count_(initial) {
    PX_ASSERT(initial >= 0);
  }

  counting_semaphore(counting_semaphore const&) = delete;
  counting_semaphore& operator=(counting_semaphore const&) = delete;

  void release(std::ptrdiff_t n = 1) {
    PX_ASSERT(n >= 0);
    std::vector<lcos::detail::waiter> to_wake;
    lock_.lock();
    count_ += n;
    // Wake as many FIFO waiters as there are permits; each woken waiter
    // re-checks and claims its permit under the lock.
    std::ptrdiff_t wakes = count_ < static_cast<std::ptrdiff_t>(fifo_.size())
                               ? count_
                               : static_cast<std::ptrdiff_t>(fifo_.size());
    for (std::ptrdiff_t i = 0; i < wakes; ++i) {
      to_wake.push_back(fifo_.front());
      fifo_.pop_front();
    }
    lock_.unlock();
    for (auto& w : to_wake) w.notify();
  }

  void acquire() {
    lock_.lock();
    for (;;) {
      if (count_ > 0) {
        --count_;
        lock_.unlock();
        return;
      }
      // Register at the back and wait for a release to single us out.
      lcos::detail::wait_once(lock_, fifo_);
    }
  }

  [[nodiscard]] bool try_acquire() {
    std::lock_guard<spinlock> guard(lock_);
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::ptrdiff_t value() const noexcept {
    std::lock_guard<spinlock> guard(lock_);
    return count_;
  }

 private:
  mutable spinlock lock_;
  std::ptrdiff_t count_;
  std::deque<lcos::detail::waiter> fifo_;
};

}  // namespace px

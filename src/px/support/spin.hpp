// px/support/spin.hpp
// Exponential-backoff spinning and a minimal TTAS spinlock.
//
// Fibers must never block the underlying OS thread while holding scheduler
// structures, so short critical sections are protected by spinlocks and long
// waits suspend the fiber instead (see px/lcos).
#pragma once

#include <atomic>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace px {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Spins with geometric backoff, yielding the OS thread once the budget of
// pause instructions is exhausted. When runnable threads outnumber cores,
// the thread being waited for may need this core; a spin that never
// yields can hold it off for a whole scheduler time slice.
class backoff {
 public:
  void pause() noexcept {
    if (count_ < spin_limit) {
      for (int i = 0; i < (1 << count_); ++i) cpu_relax();
      ++count_;
    } else {
      std::this_thread::yield();
    }
  }

  void reset() noexcept { count_ = 0; }

  [[nodiscard]] bool yielding() const noexcept { return count_ >= spin_limit; }

 private:
  static constexpr int spin_limit = 6;  // up to 2^6 pauses before yielding
  int count_ = 0;
};

// Test-and-test-and-set spinlock with backoff. Satisfies Lockable.
class spinlock {
 public:
  spinlock() = default;
  spinlock(spinlock const&) = delete;
  spinlock& operator=(spinlock const&) = delete;

  void lock() noexcept {
    backoff bo;
    for (;;) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      while (flag_.load(std::memory_order_relaxed)) bo.pause();
    }
  }

  bool try_lock() noexcept {
    return !flag_.load(std::memory_order_relaxed) &&
           !flag_.exchange(true, std::memory_order_acquire);
  }

  void unlock() noexcept { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

}  // namespace px

// px/runtime/worker.hpp
// One worker per OS thread. Owns a Chase–Lev deque of ready tasks and an
// MPSC injection queue for wakes/yields, steals from siblings when idle,
// spins briefly and then parks on its own condition variable when the
// whole pool runs dry.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "px/runtime/mpsc_queue.hpp"
#include "px/runtime/task.hpp"
#include "px/runtime/task_pool.hpp"
#include "px/runtime/ws_deque.hpp"
#include "px/support/assert.hpp"
#include "px/support/random.hpp"

namespace px::sched {
class scheduling_policy;
}

namespace px::rt {

class scheduler;

// Whether an idle worker may spin (poll with sched_yield between polls)
// before it parks: only when the process may run on more than one hardware
// thread and runs no more workers, over all its schedulers, than it has
// hardware threads. A spin never takes a core from a worker that has work,
// and a 1-core host never spins.
[[nodiscard]] constexpr bool idle_spin_allowed(
    std::size_t running_workers, std::size_t hardware_threads) noexcept {
  return hardware_threads > 1 && running_workers <= hardware_threads;
}

// Direct-action handlers (PX_REGISTER_DIRECT_ACTION) running on this OS
// thread. Such a handler runs inline on whichever thread delivers its
// parcel (a sender's task, the timer thread), so it must neither suspend
// nor block: px::dist::locality counts around the call, and every wait
// checks the count first (worker::suspend_current and yield_current for a
// task, lcos::detail::wait_once for an OS thread). As the handler never
// suspends, it finishes on the thread whose count it raised.
inline thread_local int direct_handler_depth = 0;

inline void assert_not_in_direct_handler() noexcept {
  PX_ASSERT_MSG(direct_handler_depth == 0,
                "a direct action's handler must not wait");
}

struct worker_stats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t failed_steal_rounds = 0;
  std::uint64_t parks = 0;
  std::uint64_t yields = 0;
  // Task-block pool traffic on this worker's spawn path: hits reused a
  // pooled block (local freelist or shared refill), misses fell through to
  // the global allocator. Steady-state spawning should be all hits.
  std::uint64_t task_pool_hits = 0;
  std::uint64_t task_pool_misses = 0;
  // Park timeouts that found injection items enqueued *before* the sleep
  // began — i.e. wakes the 2ms bounded wait rescued. Provably zero with
  // the locked pre-sleep drain check; nonzero means the lost-wake bug is
  // back (see mpsc_queue::set_test_relaxed_publication).
  std::uint64_t stalled_wakes = 0;
  // Wall time spent executing task slices (excludes queue management and
  // parking) — busy_ns / wall time is the worker's utilization.
  std::uint64_t busy_ns = 0;
  // Run-level RNG seed the steal-victim streams derive from; filled in by
  // scheduler::aggregate_stats() so failing runs can be replayed with
  // PX_SEED=<run_seed>.
  std::uint64_t run_seed = 0;
};

class worker {
 public:
  worker(scheduler& sched, std::size_t index, std::size_t numa_domain,
         std::uint64_t seed);

  worker(worker const&) = delete;
  worker& operator=(worker const&) = delete;

  // Main loop; runs until the scheduler stops and work is drained.
  void run();

  // Owner-side push (spawn or wake landing on our own thread).
  void push_local(task* t) { deque_.push(t); }

  // Cross-thread push; the scheduler pairs this with a notify.
  void push_injection(task* t) { injection_.push(t); }

  // Unparks this worker if it is (or is about to go) parked. Returns true
  // when a parked worker was actually signalled.
  bool notify();

  // --- called from within a running fiber (via this_task) ----------------
  // Re-enqueues the current task FIFO and switches to other work.
  void yield_current();
  // Swaps out the current task; the caller must already have registered it
  // with a waker that will call scheduler::wake(task*).
  void suspend_current();

  [[nodiscard]] task* current_task() const noexcept { return current_; }
  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  [[nodiscard]] std::size_t numa_domain() const noexcept { return numa_; }
  [[nodiscard]] scheduler& owner() const noexcept { return sched_; }
  [[nodiscard]] worker_stats const& stats() const noexcept { return stats_; }
  // Racy estimate, for scheduling heuristics only — the injection side can
  // under-report a just-completed push, so park() never trusts it for a
  // sleep decision (it takes the queue lock instead; see worker.cpp).
  [[nodiscard]] bool has_local_work() const noexcept {
    return deque_.size_estimate() > 0 || !injection_.empty_estimate();
  }

  // Worker bound to the calling OS thread, or nullptr on external threads.
  static worker* current() noexcept;

 private:
  friend class scheduler;
  // Policies reach the deque/stats/RNG through the scheduling_policy
  // protected accessors only (see px/sched/policy.hpp).
  friend class px::sched::scheduling_policy;

  task* find_work();
  void execute(task* t);
  void park();

  scheduler& sched_;
  std::size_t const index_;
  std::size_t const numa_;
  ws_deque<task> deque_;
  mpsc_queue<task> injection_;
  task_freelist task_pool_;
  xoshiro256ss rng_;
  task* current_ = nullptr;
  bool yield_requested_ = false;
  bool suspend_requested_ = false;
  worker_stats stats_;

  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  bool notified_ = false;
  std::atomic<bool> parked_{false};
};

}  // namespace px::rt

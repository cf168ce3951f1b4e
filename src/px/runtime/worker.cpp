#include "px/runtime/worker.hpp"

#include <atomic>
#include <chrono>
#include <optional>

#include "px/runtime/scheduler.hpp"
#include "px/runtime/trace.hpp"
#include "px/support/affinity.hpp"
#include "px/support/assert.hpp"
#include "px/support/spin.hpp"
#include "px/torture/torture.hpp"

namespace px::rt {
namespace {

thread_local worker* tls_worker = nullptr;

// Drain injections at least this often even when local work never dries up,
// so yielded tasks and cross-thread wakes cannot starve.
constexpr std::uint64_t injection_poll_period = 61;

// How long an idle worker keeps polling, yielding the CPU between polls,
// before it parks: longer than a halo wait or a call round trip, so those
// do not pay an OS wake.
constexpr auto idle_spin = std::chrono::microseconds(50);

// Worker threads inside run(), over every scheduler in the process (the
// localities of a distributed domain each have their own).
std::atomic<std::size_t> running_workers{0};

}  // namespace

worker* worker::current() noexcept { return tls_worker; }

worker::worker(scheduler& sched, std::size_t index, std::size_t numa_domain,
               std::uint64_t seed)
    : sched_(sched), index_(index), numa_(numa_domain), rng_(seed) {
  stats_.run_seed = seed;
  injection_.set_test_relaxed_publication(
      sched.config().test_relaxed_wake_protocol);
}

void worker::run() {
  using clock = std::chrono::steady_clock;
  tls_worker = this;
  running_workers.fetch_add(1, std::memory_order_relaxed);
  backoff idle_backoff;
  // When this idle period's spin began. Only running a task clears it, so
  // a park that times out with nothing to do is followed by the backoff
  // and another park, not by a fresh spin every 2 ms.
  std::optional<clock::time_point> spin_start;
  while (true) {
    task* t = find_work();
    if (t != nullptr) {
      idle_backoff.reset();
      spin_start.reset();
      execute(t);
      continue;
    }
    if (sched_.stop_requested()) break;
    ++stats_.failed_steal_rounds;
    if (!idle_backoff.yielding()) {
      idle_backoff.pause();
      continue;
    }
    // Backoff spent: keep polling for up to idle_spin, each pause() now a
    // sched_yield. Yielding matters: a pause-only spin delayed the timer
    // thread that fires retransmission timeouts and coalescing deadlines.
    auto const now = clock::now();
    if (!spin_start) spin_start = now;
    if (now - *spin_start < idle_spin &&
        idle_spin_allowed(running_workers.load(std::memory_order_relaxed),
                          px::hardware_concurrency())) {
      idle_backoff.pause();
      continue;
    }
    park();
    idle_backoff.reset();
  }
  running_workers.fetch_sub(1, std::memory_order_relaxed);
  tls_worker = nullptr;
}

task* worker::find_work() {
  // Periodic poll of the cold queues keeps fairness: without it a worker
  // whose own queues never drain (e.g. one yield-spinning task cycling
  // through the injection queue) would starve external submissions.
  if (stats_.tasks_executed % injection_poll_period == 0) {
    if (task* t = sched_.pop_global()) return t;
    if (task* t = injection_.pop()) return t;
  }
  // The injection queue and global overflow are structural (strict hinted
  // placement and external submission contracts); everything in between is
  // the policy's call.
  px::sched::scheduling_policy& pol = sched_.policy();
  PX_TORTURE_POINT(policy_dequeue);
  // Torture flip: drain the injection queue before the policy's local path,
  // so wakes and yields race the hot path from the other direction.
  if (PX_TORTURE_DECIDE(worker_find_work)) {
    if (task* t = injection_.pop()) return t;
    if (task* t = pol.dequeue_local(*this)) return t;
  } else {
    if (task* t = pol.dequeue_local(*this)) return t;
    if (task* t = injection_.pop()) return t;
  }
  if (task* t = pol.steal(*this)) return t;
  if (task* t = sched_.pop_global()) return t;
  return nullptr;
}

void worker::execute(task* t) {
  t->phase.store(task::st_running, std::memory_order_relaxed);
  if (t->fib == nullptr) t->materialize(sched_.stacks().acquire());

  current_ = t;
  yield_requested_ = false;
  suspend_requested_ = false;
  bool const tracing = trace::enabled();
  // Generation snapshot: if enable() fires while the slice is running, its
  // begin timestamp belongs to the previous recording epoch — the
  // generation-checked record drops it instead of emitting misordered ts.
  std::uint32_t const trace_gen = tracing ? trace::generation() : 0;
  std::uint64_t const begin_us = tracing ? trace::now_us() : 0;
  auto const begin_clock = std::chrono::steady_clock::now();
  PX_TORTURE_POINT(fiber_switch);
  t->fib->resume();
  stats_.busy_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin_clock)
          .count());
  if (tracing) {
    std::uint64_t const end_us = trace::now_us();
    trace::record_slice("task", t->id, begin_us,
                        end_us > begin_us ? end_us - begin_us : 0,
                        static_cast<std::uint32_t>(index_), trace_gen);
  }
  current_ = nullptr;
  ++stats_.tasks_executed;

  if (t->fib->finished()) {
    sched_.retire(t);
    return;
  }

  if (yield_requested_) {
    ++stats_.yields;
    t->phase.store(task::st_ready, std::memory_order_release);
    // FIFO via our own injection queue: other ready tasks run first.
    injection_.push(t);
    return;
  }

  PX_ASSERT_MSG(suspend_requested_,
                "fiber returned control without yield/suspend/finish");
  // Complete the suspension handshake (see task.hpp).
  int expected = task::st_running;
  if (!t->phase.compare_exchange_strong(expected, task::st_suspended,
                                        std::memory_order_acq_rel)) {
    PX_ASSERT(expected == task::st_woken);
    sched_.enqueue_ready(t);
  }
}

void worker::yield_current() {
  assert_not_in_direct_handler();
  PX_ASSERT(current_ != nullptr);
  PX_ASSERT(fibers::fiber::current() == current_->fib);
  yield_requested_ = true;
  current_->fib->suspend_to_owner();
}

void worker::suspend_current() {
  assert_not_in_direct_handler();
  PX_ASSERT(current_ != nullptr);
  PX_ASSERT(fibers::fiber::current() == current_->fib);
  suspend_requested_ = true;
  current_->fib->suspend_to_owner();
}

void worker::park() {
  // Final recheck under the parked flag: a producer that enqueued between
  // our last poll and here will observe parked_ and call notify().
  parked_.store(true, std::memory_order_seq_cst);
  // The injection check MUST take the queue lock. The published size can
  // lag a completed push (producer store buffer; weak memory on Arm), and
  // that push's notify() may already have read parked_ == false — sleep on
  // the stale estimate and the wake is lost until the bounded wait expires.
  // The locked check observes every push whose critical section finished;
  // later pushes see parked_ == true and signal us. Under the test knob the
  // old estimate-based check is reinstated so the torture suite can pin the
  // bug (tests/test_torture_mpsc.cpp).
  bool const relaxed_knob = sched_.config().test_relaxed_wake_protocol;
  bool injection_empty;
  std::uint64_t epoch_pre;
  if (relaxed_knob) {
    injection_empty = injection_.empty_estimate();
    epoch_pre = injection_.push_epoch_estimate();
  } else {
    auto const view = injection_.inspect_locked();
    injection_empty = view.empty;
    epoch_pre = view.push_epoch;
  }
  // The policy's pending_locked carries the same obligation for
  // policy-owned queues: it must take the locks the enqueue path takes
  // (ws_policy checks its deque estimate + global size, exactly the
  // pre-extraction checks; lane policies take the lane mutex).
  if (!injection_empty || sched_.policy().pending_locked(*this) ||
      sched_.stop_requested()) {
    parked_.store(false, std::memory_order_release);
    return;
  }
  ++stats_.parks;
  bool timed_out;
  {
    std::unique_lock<std::mutex> lock(park_mutex_);
    // Bounded wait guards against a lost notify from stealable (non-local)
    // work appearing on a sibling deque, which nobody signals us about.
    timed_out = !park_cv_.wait_for(lock, std::chrono::milliseconds(2),
                                   [this] { return notified_; });
    notified_ = false;
  }
  parked_.store(false, std::memory_order_release);
  if (timed_out) {
    // Detector: a timeout that finds injection items with the push epoch
    // unchanged slept through a wake that was already enqueued when the
    // pre-sleep check ran. Impossible with the locked check (any such push
    // would have been seen); counts the rescued lost wakes when the knob
    // reintroduces the estimate-based sleep. The locked inspection also
    // republishes the size, so find_work's pop sees the items again.
    auto const view = injection_.inspect_locked();
    if (!view.empty && view.push_epoch == epoch_pre) ++stats_.stalled_wakes;
  }
}

bool worker::notify() {
  if (!parked_.load(std::memory_order_seq_cst)) return false;
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    notified_ = true;
  }
  park_cv_.notify_one();
  return true;
}

}  // namespace px::rt

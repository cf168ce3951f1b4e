#include "px/runtime/timer_service.hpp"

#include <algorithm>
#include <utility>

#include "px/counters/counters.hpp"
#include "px/runtime/scheduler.hpp"
#include "px/support/affinity.hpp"
#include "px/support/assert.hpp"
#include "px/torture/torture.hpp"

namespace px::rt {

timer_service& timer_service::instance() {
  static timer_service service;
  return service;
}

timer_service::timer_service() : thread_([this] { loop(); }) {}

timer_service::~timer_service() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_one();
  thread_.join();
}

void timer_service::wake_at(clock::time_point deadline, task* t) {
  PX_ASSERT(t != nullptr);
  counters::builtin().timer_wakes.add();
  // Torture jitter only ever delays a deadline, so "never fires early"
  // stays intact while relative firing order gets shuffled.
  deadline += std::chrono::nanoseconds(PX_TORTURE_JITTER_NS(timer_deadline));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    heap_.push(entry{deadline, next_seq_++, t, nullptr});
  }
  cv_.notify_one();
}

void timer_service::call_at(clock::time_point deadline,
                            unique_function<void()> fn) {
  PX_ASSERT(fn);
  deadline += std::chrono::nanoseconds(PX_TORTURE_JITTER_NS(timer_deadline));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    heap_.push(entry{deadline, next_seq_++, nullptr, std::move(fn)});
  }
  cv_.notify_one();
}

void timer_service::call_at(clock::time_point deadline,
                            unique_function<void()> fn,
                            std::shared_ptr<timer_token> token) {
  PX_ASSERT(fn);
  PX_ASSERT(token != nullptr);
  call_at(deadline, [token = std::move(token), fn = std::move(fn)]() mutable {
    if (token->try_claim_for_run()) {
      fn();
      // Publishes completion to cancel_and_wait: a canceller that lost
      // the claim may free the callback's captures once it sees `done`.
      token->mark_done();
    } else {
      counters::builtin().timer_cancelled.add();
    }
  });
}

std::size_t timer_service::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return heap_.size();
}

void timer_service::loop() {
  name_this_thread("px-timer");
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (stop_) return;
    if (heap_.empty()) {
      cv_.wait(lock, [this] { return stop_ || !heap_.empty(); });
      continue;
    }
    auto const now = clock::now();
    if (heap_.top().deadline > now) {
      // Copy the deadline out: wait_until takes it by reference and drops
      // the lock, so a concurrent push may reallocate the heap's storage
      // under the referenced entry mid-wait.
      auto const next_deadline = heap_.top().deadline;
      cv_.wait_until(lock, next_deadline);
      continue;
    }
    // Move the due entry out; priority_queue::top() is const so the move
    // goes through a const_cast, which is safe because pop() follows
    // immediately and nothing else can observe the moved-from entry.
    entry due = std::move(const_cast<entry&>(heap_.top()));
    heap_.pop();
    // Torture: entries due within the same epoch (both deadlines already
    // passed) have no ordering contract with each other — sometimes fire
    // the second one first, so callbacks that silently rely on seq order
    // break under the sweep instead of in production. The displaced entry
    // is still due and fires on the next loop iteration.
    if (!heap_.empty() && heap_.top().deadline <= now &&
        PX_TORTURE_DECIDE(timer_fire)) {
      entry second = std::move(const_cast<entry&>(heap_.top()));
      heap_.pop();
      std::swap(due, second);
      heap_.push(std::move(second));
    }
    lock.unlock();
    PX_TORTURE_POINT(timer_fire);
    if (due.waiter != nullptr) {
      due.waiter->owner->wake(due.waiter);
    } else {
      due.fn();
    }
    lock.lock();
  }
}

}  // namespace px::rt

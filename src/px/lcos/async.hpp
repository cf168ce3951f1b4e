// px/lcos/async.hpp
// hpx::async / hpx::post / hpx::dataflow equivalents.
//
// All spawn entry points — async/async_on/post/post_on/sync_wait/dataflow,
// for every target kind (runtime, execution policy, ambient; dataflow also
// takes a bare scheduler) — funnel through the two functions in px::detail
// below and from there into scheduler::spawn, the single instrumented choke
// point the counter registry and tracer observe.
#pragma once

#include <tuple>
#include <type_traits>
#include <utility>

#include "px/lcos/future.hpp"
#include "px/parallel/execution.hpp"

namespace px {

namespace detail {

// THE future-producing spawn path. Everything above resolves its target to
// a scheduler and lands here.
template <typename F, typename... Args>
auto spawn_future(rt::scheduler& sched, F&& f, Args&&... args)
    -> future<std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>> {
  using R = std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>;
  auto state = std::make_shared<lcos::detail::shared_state<R>>();
  sched.spawn([state, fn = std::decay_t<F>(std::forward<F>(f)),
               tup = std::make_tuple(std::decay_t<Args>(
                   std::forward<Args>(args))...)]() mutable {
    std::apply(
        [&](auto&&... unpacked) {
          lcos::detail::fulfill(*state, std::move(fn),
                                std::move(unpacked)...);
        },
        std::move(tup));
  });
  return lcos::detail::make_future_from_state(std::move(state));
}

// THE fire-and-forget spawn path (hpx::post shape).
template <typename F, typename... Args>
void spawn_detached(rt::scheduler& sched, F&& f, Args&&... args) {
  sched.spawn([fn = std::decay_t<F>(std::forward<F>(f)),
               tup = std::make_tuple(std::decay_t<Args>(
                   std::forward<Args>(args))...)]() mutable {
    std::apply(std::move(fn), std::move(tup));
  });
}

}  // namespace detail

// ---- async --------------------------------------------------------------

// Primary forms: spawn on a runtime or under an execution policy.
template <typename F, typename... Args>
auto async_on(runtime& rt, F&& f, Args&&... args) {
  return detail::spawn_future(rt.sched(), std::forward<F>(f),
                              std::forward<Args>(args)...);
}

template <typename F, typename... Args>
auto async_on(execution::parallel_policy const& policy, F&& f,
              Args&&... args) {
  return detail::spawn_future(policy.select_scheduler(), std::forward<F>(f),
                              std::forward<Args>(args)...);
}

// From within a task: spawn on the ambient scheduler.
template <typename F, typename... Args>
auto async(F&& f, Args&&... args) {
  return detail::spawn_future(lcos::detail::ambient_scheduler(),
                              std::forward<F>(f),
                              std::forward<Args>(args)...);
}

// ---- post (fire-and-forget) ---------------------------------------------

template <typename F, typename... Args>
void post_on(runtime& rt, F&& f, Args&&... args) {
  detail::spawn_detached(rt.sched(), std::forward<F>(f),
                         std::forward<Args>(args)...);
}

template <typename F, typename... Args>
void post_on(execution::parallel_policy const& policy, F&& f,
             Args&&... args) {
  detail::spawn_detached(policy.select_scheduler(), std::forward<F>(f),
                         std::forward<Args>(args)...);
}

template <typename F, typename... Args>
void post(F&& f, Args&&... args) {
  detail::spawn_detached(lcos::detail::ambient_scheduler(),
                         std::forward<F>(f), std::forward<Args>(args)...);
}

// Runs `f` as a px task on `rt` and blocks the calling external thread for
// the result — the bridge from main() into task-land.
template <typename F, typename... Args>
auto sync_wait(runtime& rt, F&& f, Args&&... args) {
  auto fut = detail::spawn_future(rt.sched(), std::forward<F>(f),
                                  std::forward<Args>(args)...);
  return fut.get();
}

namespace lcos::detail {

// Attaches `fn` to run (inline) once all states are ready.
template <typename States>
void on_all_ready(States const& states, unique_function<void()> fn) {
  struct counter_block {
    std::atomic<std::size_t> remaining;
    unique_function<void()> fn;
  };
  std::size_t const n = std::tuple_size_v<States> == 0
                            ? 0
                            : std::tuple_size_v<States>;
  if (n == 0) {
    fn();
    return;
  }
  auto block = std::make_shared<counter_block>();
  block->remaining.store(n, std::memory_order_relaxed);
  block->fn = std::move(fn);
  auto arm = [&block](auto const& state) {
    state->add_continuation([block] {
      if (block->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
        block->fn();
    });
  };
  std::apply([&](auto const&... state) { (arm(state), ...); }, states);
}

}  // namespace lcos::detail

// dataflow(sched, f, futures...): runs f(futures...) as a new task once all
// inputs are ready; f receives the *ready* futures (HPX semantics).
template <typename F, typename... Ts>
auto dataflow_on(rt::scheduler& sched, F&& f, future<Ts>&&... inputs)
    -> future<std::invoke_result_t<std::decay_t<F>, future<Ts>...>> {
  using R = std::invoke_result_t<std::decay_t<F>, future<Ts>...>;
  auto out = std::make_shared<lcos::detail::shared_state<R>>();
  auto states = std::make_tuple(inputs.release_state()...);
  auto fn_holder = std::make_shared<std::decay_t<F>>(std::forward<F>(f));
  lcos::detail::on_all_ready(
      states, [out, states, fn_holder, &sched]() mutable {
        sched.spawn([out = std::move(out), states = std::move(states),
                     fn_holder = std::move(fn_holder)]() mutable {
          std::apply(
              [&](auto&&... st) {
                lcos::detail::fulfill(
                    *out, std::move(*fn_holder),
                    lcos::detail::make_future_from_state(std::move(st))...);
              },
              std::move(states));
        });
      });
  return lcos::detail::make_future_from_state(std::move(out));
}

template <typename F, typename... Ts>
auto dataflow_on(runtime& rt, F&& f, future<Ts>&&... inputs) {
  return dataflow_on(rt.sched(), std::forward<F>(f), std::move(inputs)...);
}

template <typename F, typename... Ts>
auto dataflow(F&& f, future<Ts>&&... inputs) {
  return dataflow_on(lcos::detail::ambient_scheduler(), std::forward<F>(f),
                     std::move(inputs)...);
}

}  // namespace px

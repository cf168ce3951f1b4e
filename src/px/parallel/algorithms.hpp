// px/parallel/algorithms.hpp
// Parallel algorithms over random-access ranges, in the shape the paper's
// listings use: hpx::parallel::for_each(policy, begin, end, f).
//
// Every parallel invocation goes through detail::bulk_run. Under plain
// `par` the calling worker runs a leading slice of the loop itself and
// times it, then forks only what that measured cost can pay for: a small
// loop finishes inline, a larger one splits into tasks sized from the
// measured time per iteration, and the caller runs one of those tasks.
// `.with(chunk)` and a bound executor keep a fixed decomposition: one task
// per chunk, placed by the executor. Exceptions from chunk bodies are
// captured and the first one is rethrown to the caller after all chunks
// finish.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <iterator>
#include <numeric>
#include <utility>
#include <vector>

#include "px/lcos/future.hpp"
#include "px/lcos/latch.hpp"
#include "px/parallel/execution.hpp"
#include "px/runtime/runtime.hpp"
#include "px/support/math.hpp"

namespace px::parallel {

namespace detail {

struct chunk_range {
  std::size_t begin;
  std::size_t end;
};

// Splits [0, n) into `chunks` contiguous ranges with remainder spread over
// the leading chunks (sizes differ by at most one element).
inline chunk_range chunk_bounds(std::size_t n, std::size_t chunks,
                                std::size_t index) {
  std::size_t const base = n / chunks;
  std::size_t const extra = n % chunks;
  std::size_t const begin =
      index * base + (index < extra ? index : extra);
  std::size_t const size = base + (index < extra ? 1 : 0);
  return {begin, begin + size};
}

// A policy resolved against a concrete index space: the scheduler every
// chunk task will be spawned on, the number of chunks and whether the
// grain is measured. All algorithm headers derive all three through this
// one helper (never through policy.bound_executor()->sched() locally), so
// an algorithm that pre-sizes per-chunk storage sees the chunk count the
// bulk_run that executes it uses.
struct bulk_plan {
  rt::scheduler* sched;
  // Chunk indices a chunked body sees are [0, num_chunks).
  std::size_t num_chunks;
  // Plain `par`: the caller (a worker of `sched`) runs chunks itself and
  // forks from a timed leading slice. Otherwise every chunk is its own
  // task, placed by the bound executor.
  bool measured;
};

// Chunks per worker of a measured plan. The caller runs at least one whole
// chunk alone before it can fork, so chunks finer than the task cap
// (auto_num_chunks, 8 per worker) shorten that serial head: 1/128 of a
// large reduce on 4 workers, not 1/32.
inline constexpr std::size_t measured_chunks_per_worker = 32;

[[nodiscard]] inline bulk_plan plan_bulk(
    execution::parallel_policy const& policy, std::size_t n) {
  rt::scheduler& sched = policy.select_scheduler();
  std::size_t const workers = sched.num_workers();
  if (policy.chunk_size() > 0)
    return {&sched, div_ceil(n, policy.chunk_size()), false};
  if (policy.bound_executor() != nullptr)
    return {&sched, execution::auto_num_chunks(n, workers), false};
  // Unbound: select_scheduler() is the caller's own. With one worker there
  // is nobody to fork to.
  return {&sched,
          std::min(n, workers > 1 ? workers * measured_chunks_per_worker
                                  : std::size_t{1}),
          true};
}

// One result slot per chunk, for algorithms that fold each chunk into its
// own slot. Chunk tasks write their slots concurrently, so every slot must
// be a separate object: std::vector<bool> packs neighbouring slots into
// one word, and two chunks setting neighbouring bits race and lose one of
// the updates.
template <typename T>
struct chunk_slot {
  T value;
};

template <typename T>
using chunk_slots = std::vector<chunk_slot<T>>;

// The leading slice is timed in doubling batches until it covers at least
// this long: a shorter sample measures steady_clock's own read (~20 ns),
// not the body.
inline constexpr std::int64_t timed_slice_ns = 1'000;
// What handing one task to another worker and joining it costs the caller:
// the spawn, a steal or wake, the latch resume, and under a lane policy
// (wfq, priority) the wait behind every task already queued in the lane.
// bench/ablation_grain_size times one round of 4 empty tasks on a 4-vCPU
// KVM host at 5-6 us (median) with the other workers idle-spinning and
// 15-35 us once they have parked; this sits between the two. Work
// estimated below two of these runs inline, and no forked task is sized
// below one.
inline constexpr double fork_join_ns = 10'000;

// Tasks to fork for the `rest` units left after a timed slice of `done`
// units took `elapsed_ns`, with `workers` workers and at most `max_tasks`
// tasks; 0 means the caller finishes inline. Each task is worth at least
// fork_join_ns, and the count is rounded up to whole rounds of `workers`
// (the caller runs one of them), then capped at min(max_tasks, rest).
[[nodiscard]] inline std::size_t fork_tasks(std::int64_t elapsed_ns,
                                            std::size_t done,
                                            std::size_t rest,
                                            std::size_t max_tasks,
                                            std::size_t workers) {
  std::size_t const cap = std::min(max_tasks, rest);
  if (workers < 2 || cap < 2 || done == 0) return 0;
  double const rest_ns = static_cast<double>(elapsed_ns) /
                         static_cast<double>(done) *
                         static_cast<double>(rest);
  double const affordable = rest_ns / fork_join_ns;
  if (affordable < 2.0) return 0;
  std::size_t const tasks =
      affordable >= static_cast<double>(cap)
          ? cap
          : static_cast<std::size_t>(affordable);
  return std::min(round_up(tasks, workers), cap);
}

// Runs chunks [0, count) as tasks on `sched`, placed by `ex`, and waits
// on a latch; with `caller_runs_first` the caller runs chunk 0 itself
// instead of spawning it. `run(c)` processes chunk c. The first exception
// is rethrown after every chunk finishes.
template <typename Run>
void fork_join(rt::scheduler& sched, executor const* ex, std::size_t count,
               bool caller_runs_first, Run const& run) {
  latch done(static_cast<std::ptrdiff_t>(count));
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  spinlock error_lock;
  auto const guarded = [&](std::size_t c) {
    try {
      run(c);
    } catch (...) {
      if (!failed.exchange(true, std::memory_order_acq_rel)) {
        std::lock_guard<spinlock> guard(error_lock);
        first_error = std::current_exception();
      }
    }
    done.count_down();
  };

  for (std::size_t c = caller_runs_first ? 1 : 0; c < count; ++c) {
    int const hint = ex != nullptr ? ex->placement(c, count) : -1;
    sched.spawn([&guarded, c] { guarded(c); }, hint);
  }
  if (caller_runs_first) guarded(0);
  done.wait();
  if (failed.load(std::memory_order_acquire)) {
    std::lock_guard<spinlock> guard(error_lock);
    std::rethrow_exception(first_error);
  }
}

// Measured fork-join over `units` (items, or a plan's chunks): `run(lo,
// hi)` processes units [lo, hi). The caller runs a leading slice in
// doubling batches until it has taken timed_slice_ns, then either finishes
// inline or forks the rest into fork_tasks() tasks, at most
// auto_num_chunks per call, running the first of them itself.
template <typename Run>
void measured_run(rt::scheduler& sched, std::size_t units, Run const& run) {
  std::size_t const workers = sched.num_workers();
  if (workers < 2 || units < 2) {
    run(std::size_t{0}, units);
    return;
  }
  if (units <= workers) {
    // No grain to choose: a task per unit. Timing one unit first would run
    // 1/units of the loop alone, twice the time of `workers` coarse units.
    fork_join(sched, nullptr, units, true,
              [&](std::size_t c) { run(c, c + 1); });
    return;
  }
  using clock = std::chrono::steady_clock;
  auto const start = clock::now();
  std::size_t done = 0;
  std::int64_t elapsed_ns = 0;
  for (std::size_t batch = 1; done < units && elapsed_ns < timed_slice_ns;
       batch *= 2) {
    std::size_t const end = done + std::min(batch, units - done);
    run(done, end);
    done = end;
    elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     clock::now() - start)
                     .count();
  }
  std::size_t const rest = units - done;
  if (rest == 0) return;
  std::size_t const tasks =
      fork_tasks(elapsed_ns, done, rest,
                 execution::auto_num_chunks(units, workers), workers);
  if (tasks == 0) {
    run(done, units);
    return;
  }
  fork_join(sched, nullptr, tasks, true, [&](std::size_t c) {
    chunk_range const r = chunk_bounds(rest, tasks, c);
    run(done + r.begin, done + r.end);
  });
}

// Chunked form: `body(begin, end, chunk)` runs exactly once for every
// chunk of the plan's decomposition of [0, n), so per-chunk slots sized
// from plan.num_chunks are each written once.
template <typename Body>
void bulk_run(execution::parallel_policy const& policy,
              bulk_plan const& plan, std::size_t n, Body&& body) {
  if (n == 0) return;
  auto const run_chunks = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      chunk_range const r = chunk_bounds(n, plan.num_chunks, c);
      body(r.begin, r.end, c);
    }
  };
  if (plan.measured) {
    measured_run(*plan.sched, plan.num_chunks, run_chunks);
  } else if (plan.num_chunks <= 1) {
    body(std::size_t{0}, n, std::size_t{0});
  } else {
    fork_join(*plan.sched, policy.bound_executor(), plan.num_chunks, false,
              [&](std::size_t c) { run_chunks(c, c + 1); });
  }
}

// Index-free form: `body(begin, end)` runs over disjoint ranges covering
// [0, n). Under a measured plan the ranges follow the measured grain, not
// the plan's chunks.
template <typename Body>
void bulk_run(execution::parallel_policy const& policy, std::size_t n,
              Body&& body) {
  if (n == 0) return;
  bulk_plan const plan = plan_bulk(policy, n);
  if (plan.measured) {
    measured_run(*plan.sched, n, body);
  } else {
    bulk_run(policy, plan, n,
             [&body](std::size_t lo, std::size_t hi, std::size_t) {
               body(lo, hi);
             });
  }
}

}  // namespace detail

// ---- for_each -----------------------------------------------------------

template <typename It, typename F>
void for_each(execution::sequenced_policy, It first, It last, F f) {
  for (; first != last; ++first) f(*first);
}

template <typename It, typename F>
void for_each(execution::parallel_policy const& policy, It first, It last,
              F f) {
  static_assert(std::is_base_of_v<
                    std::random_access_iterator_tag,
                    typename std::iterator_traits<It>::iterator_category>,
                "parallel for_each requires random-access iterators");
  auto const n = static_cast<std::size_t>(std::distance(first, last));
  detail::bulk_run(policy, n,
                   [&f, first](std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i)
                       f(first[static_cast<std::ptrdiff_t>(i)]);
                   });
}

// ---- for_loop (index space) ---------------------------------------------

template <typename F>
void for_loop(execution::sequenced_policy, std::size_t lo, std::size_t hi,
              F f) {
  for (std::size_t i = lo; i < hi; ++i) f(i);
}

template <typename F>
void for_loop(execution::parallel_policy const& policy, std::size_t lo,
              std::size_t hi, F f) {
  if (hi <= lo) return;
  detail::bulk_run(policy, hi - lo,
                   [&f, lo](std::size_t b, std::size_t e) {
                     for (std::size_t i = b; i < e; ++i) f(lo + i);
                   });
}

// ---- transform -----------------------------------------------------------

template <typename InIt, typename OutIt, typename F>
OutIt transform(execution::sequenced_policy, InIt first, InIt last,
                OutIt out, F f) {
  for (; first != last; ++first, ++out) *out = f(*first);
  return out;
}

template <typename InIt, typename OutIt, typename F>
OutIt transform(execution::parallel_policy const& policy, InIt first,
                InIt last, OutIt out, F f) {
  auto const n = static_cast<std::size_t>(std::distance(first, last));
  detail::bulk_run(policy, n,
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i)
                       out[static_cast<std::ptrdiff_t>(i)] =
                           f(first[static_cast<std::ptrdiff_t>(i)]);
                   });
  return out + static_cast<std::ptrdiff_t>(n);
}

// ---- reduce / transform_reduce -------------------------------------------

template <typename It, typename T, typename Op>
T reduce(execution::sequenced_policy, It first, It last, T init, Op op) {
  for (; first != last; ++first) init = op(std::move(init), *first);
  return init;
}

template <typename It, typename T, typename Op>
T reduce(execution::parallel_policy const& policy, It first, It last, T init,
         Op op) {
  auto const n = static_cast<std::size_t>(std::distance(first, last));
  if (n == 0) return init;
  detail::bulk_plan const plan = detail::plan_bulk(policy, n);
  detail::chunk_slots<T> partials(plan.num_chunks, {init});
  detail::bulk_run(policy, plan, n,
                   [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
                     // Identity-free chunk fold: seed with the first element.
                     T acc = first[static_cast<std::ptrdiff_t>(lo)];
                     for (std::size_t i = lo + 1; i < hi; ++i)
                       acc = op(std::move(acc),
                                first[static_cast<std::ptrdiff_t>(i)]);
                     partials[chunk].value = std::move(acc);
                   });
  // Chunks are never empty, so every slot holds its chunk's fold and
  // `init` enters the total exactly once.
  T total = std::move(init);
  for (auto& p : partials) total = op(std::move(total), std::move(p.value));
  return total;
}

template <typename It, typename T, typename Reduce, typename Map>
T transform_reduce(execution::sequenced_policy, It first, It last, T init,
                   Reduce r, Map m) {
  for (; first != last; ++first) init = r(std::move(init), m(*first));
  return init;
}

template <typename It, typename T, typename Reduce, typename Map>
T transform_reduce(execution::parallel_policy const& policy, It first,
                   It last, T init, Reduce r, Map m) {
  auto const n = static_cast<std::size_t>(std::distance(first, last));
  if (n == 0) return init;
  detail::bulk_plan const plan = detail::plan_bulk(policy, n);
  detail::chunk_slots<T> partials(plan.num_chunks, {init});
  detail::bulk_run(policy, plan, n,
                   [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
                     T acc = m(first[static_cast<std::ptrdiff_t>(lo)]);
                     for (std::size_t i = lo + 1; i < hi; ++i)
                       acc = r(std::move(acc),
                               m(first[static_cast<std::ptrdiff_t>(i)]));
                     partials[chunk].value = std::move(acc);
                   });
  T total = std::move(init);
  for (auto& p : partials) total = r(std::move(total), std::move(p.value));
  return total;
}

// ---- fill / copy ----------------------------------------------------------

template <typename It, typename T>
void fill(execution::parallel_policy const& policy, It first, It last,
          T const& value) {
  auto const n = static_cast<std::size_t>(std::distance(first, last));
  detail::bulk_run(policy, n,
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i)
                       first[static_cast<std::ptrdiff_t>(i)] = value;
                   });
}

template <typename InIt, typename OutIt>
OutIt copy(execution::parallel_policy const& policy, InIt first, InIt last,
           OutIt out) {
  auto const n = static_cast<std::size_t>(std::distance(first, last));
  detail::bulk_run(policy, n,
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i)
                       out[static_cast<std::ptrdiff_t>(i)] =
                           first[static_cast<std::ptrdiff_t>(i)];
                   });
  return out + static_cast<std::ptrdiff_t>(n);
}

}  // namespace px::parallel

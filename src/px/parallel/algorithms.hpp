// px/parallel/algorithms.hpp
// Parallel algorithms over random-access ranges, in the shape the paper's
// listings use: hpx::parallel::for_each(policy, begin, end, f).
//
// Each parallel invocation decomposes the index space into chunks, spawns
// one px task per chunk (placed by the policy's executor) and waits on a
// latch. Exceptions from chunk bodies are captured and the first one is
// rethrown to the caller after all chunks finish.
#pragma once

#include <atomic>
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
// chunk task will be spawned on and the number of chunks. All algorithm
// headers derive both through this one helper (never through
// policy.bound_executor()->sched() locally), so decomposition and
// placement stay consistent between a driver that pre-sizes per-chunk
// storage and the bulk_run that executes it.
struct bulk_plan {
  rt::scheduler* sched;
  std::size_t num_chunks;
};

[[nodiscard]] inline bulk_plan plan_bulk(
    execution::parallel_policy const& policy, std::size_t n) {
  rt::scheduler& sched = policy.select_scheduler();
  std::size_t const chunks =
      policy.chunk_size() > 0
          ? div_ceil(n, policy.chunk_size())
          : execution::auto_num_chunks(n, sched.num_workers());
  return {&sched, chunks};
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

// Core fork-join driver with explicit decomposition: spawns `num_chunks`
// tasks over [0, n), placed by the policy's executor, and waits on a
// latch. `body(begin, end, chunk_index)` processes one contiguous chunk.
// Exceptions from chunk bodies are captured; the first one is rethrown
// after all chunks finish.
template <typename Body>
void bulk_run(execution::parallel_policy const& policy,
              rt::scheduler& sched, std::size_t n, std::size_t num_chunks,
              Body&& body) {
  if (n == 0) return;
  if (num_chunks <= 1) {
    body(std::size_t{0}, n, std::size_t{0});
    return;
  }

  executor const* const ex = policy.bound_executor();
  latch done(static_cast<std::ptrdiff_t>(num_chunks));
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  spinlock error_lock;

  for (std::size_t c = 0; c < num_chunks; ++c) {
    chunk_range const r = chunk_bounds(n, num_chunks, c);
    int const hint = ex != nullptr ? ex->placement(c, num_chunks) : -1;
    sched.spawn(
        [&, r, c] {
          try {
            body(r.begin, r.end, c);
          } catch (...) {
            if (!failed.exchange(true, std::memory_order_acq_rel)) {
              std::lock_guard<spinlock> guard(error_lock);
              first_error = std::current_exception();
            }
          }
          done.count_down();
        },
        hint);
  }
  done.wait();
  if (failed.load(std::memory_order_acquire)) {
    std::lock_guard<spinlock> guard(error_lock);
    std::rethrow_exception(first_error);
  }
}

// Common form: decomposition chosen by the policy (chunk_size or the 8x
// over-decomposition heuristic).
template <typename Body>
void bulk_run(execution::parallel_policy const& policy, std::size_t n,
              Body&& body) {
  if (n == 0) return;
  bulk_plan const plan = plan_bulk(policy, n);
  bulk_run(policy, *plan.sched, n, plan.num_chunks,
           std::forward<Body>(body));
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
                   [&f, first](std::size_t lo, std::size_t hi, std::size_t) {
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
                   [&f, lo](std::size_t b, std::size_t e, std::size_t) {
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
                   [&](std::size_t lo, std::size_t hi, std::size_t) {
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
  detail::bulk_run(policy, *plan.sched, n, plan.num_chunks,
                   [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
                     // Identity-free chunk fold: seed with the first element.
                     T acc = first[static_cast<std::ptrdiff_t>(lo)];
                     for (std::size_t i = lo + 1; i < hi; ++i)
                       acc = op(std::move(acc),
                                first[static_cast<std::ptrdiff_t>(i)]);
                     partials[chunk].value = std::move(acc);
                   });
  // NOTE: bulk_run may re-chunk to 1 when n is tiny; chunk index stays 0 and
  // the remaining `partials` slots keep `init`, which must therefore be the
  // identity of `op` (as with std::reduce).
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
  detail::bulk_run(policy, *plan.sched, n, plan.num_chunks,
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
                   [&](std::size_t lo, std::size_t hi, std::size_t) {
                     for (std::size_t i = lo; i < hi; ++i)
                       first[static_cast<std::ptrdiff_t>(i)] = value;
                   });
}

template <typename InIt, typename OutIt>
OutIt copy(execution::parallel_policy const& policy, InIt first, InIt last,
           OutIt out) {
  auto const n = static_cast<std::size_t>(std::distance(first, last));
  detail::bulk_run(policy, n,
                   [&](std::size_t lo, std::size_t hi, std::size_t) {
                     for (std::size_t i = lo; i < hi; ++i)
                       out[static_cast<std::ptrdiff_t>(i)] =
                           first[static_cast<std::ptrdiff_t>(i)];
                   });
  return out + static_cast<std::ptrdiff_t>(n);
}

}  // namespace px::parallel

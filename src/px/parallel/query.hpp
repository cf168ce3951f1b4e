// px/parallel/query.hpp
// Parallel query algorithms: count/count_if, all_of/any_of/none_of,
// min_element/max_element. All are chunked transform-reduce shapes with
// early-exit-free semantics (chunks are small; a cancellation token would
// cost more than it saves at these sizes).
#pragma once

#include <iterator>

#include "px/parallel/algorithms.hpp"

namespace px::parallel {

template <typename It, typename Pred>
std::size_t count_if(execution::parallel_policy const& policy, It first,
                     It last, Pred pred) {
  return transform_reduce(policy, first, last, std::size_t{0},
                          std::plus<>{}, [&pred](auto const& v) {
                            return pred(v) ? std::size_t{1} : std::size_t{0};
                          });
}

template <typename It, typename T>
std::size_t count(execution::parallel_policy const& policy, It first,
                  It last, T const& value) {
  return count_if(policy, first, last,
                  [&value](auto const& v) { return v == value; });
}

template <typename It, typename Pred>
bool all_of(execution::parallel_policy const& policy, It first, It last,
            Pred pred) {
  return transform_reduce(policy, first, last, true,
                          [](bool a, bool b) { return a && b; },
                          [&pred](auto const& v) { return bool(pred(v)); });
}

template <typename It, typename Pred>
bool any_of(execution::parallel_policy const& policy, It first, It last,
            Pred pred) {
  return transform_reduce(policy, first, last, false,
                          [](bool a, bool b) { return a || b; },
                          [&pred](auto const& v) { return bool(pred(v)); });
}

template <typename It, typename Pred>
bool none_of(execution::parallel_policy const& policy, It first, It last,
             Pred pred) {
  return !any_of(policy, first, last, pred);
}

// min/max element by index so ties resolve to the first occurrence, as the
// sequential algorithms promise.
template <typename It, typename Compare = std::less<>>
It min_element(execution::parallel_policy const& policy, It first, It last,
               Compare comp = {}) {
  auto const n = static_cast<std::size_t>(std::distance(first, last));
  if (n == 0) return last;
  auto pick = [&](std::size_t a, std::size_t b) {
    auto const& va = first[static_cast<std::ptrdiff_t>(a)];
    auto const& vb = first[static_cast<std::ptrdiff_t>(b)];
    if (comp(vb, va)) return b;
    if (comp(va, vb)) return a;
    return a < b ? a : b;  // stable tie-break
  };
  // Reduce over chunk-local winners; one shared plan sizes the winner
  // array and drives the chunk tasks.
  detail::bulk_plan const plan = detail::plan_bulk(policy, n);
  std::vector<std::size_t> winners(plan.num_chunks, 0);
  detail::bulk_run(policy, plan, n,
                   [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
                     std::size_t best = lo;
                     for (std::size_t i = lo + 1; i < hi; ++i)
                       best = pick(best, i);
                     winners[chunk] = best;
                   });
  std::size_t best = winners[0];
  for (std::size_t c = 1; c < plan.num_chunks; ++c)
    best = pick(best, winners[c]);
  return first + static_cast<std::ptrdiff_t>(best);
}

template <typename It, typename Compare = std::less<>>
It max_element(execution::parallel_policy const& policy, It first, It last,
               Compare comp = {}) {
  return min_element(policy, first, last,
                     [&comp](auto const& a, auto const& b) {
                       return comp(b, a);
                     });
}

// First element satisfying pred (sequential semantics: the lowest index).
// Chunks record their local first match; the global minimum wins.
template <typename It, typename Pred>
It find_if(execution::parallel_policy const& policy, It first, It last,
           Pred pred) {
  auto const n = static_cast<std::size_t>(std::distance(first, last));
  if (n == 0) return last;
  std::atomic<std::size_t> best{n};
  detail::bulk_run(policy, n,
                   [&](std::size_t lo, std::size_t hi) {
                     // Skip chunks entirely beyond an already-found match.
                     if (lo >= best.load(std::memory_order_relaxed)) return;
                     for (std::size_t i = lo; i < hi; ++i) {
                       if (pred(first[static_cast<std::ptrdiff_t>(i)])) {
                         std::size_t cur = best.load(
                             std::memory_order_relaxed);
                         while (i < cur && !best.compare_exchange_weak(
                                               cur, i,
                                               std::memory_order_acq_rel)) {
                         }
                         return;
                       }
                     }
                   });
  return first + static_cast<std::ptrdiff_t>(best.load());
}

template <typename It, typename T>
It find(execution::parallel_policy const& policy, It first, It last,
        T const& value) {
  return find_if(policy, first, last,
                 [&value](auto const& v) { return v == value; });
}

}  // namespace px::parallel

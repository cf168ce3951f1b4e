// px/parallel/numeric.hpp
// Parallel prefix sums and numeric scans. inclusive_scan/exclusive_scan use
// the classic two-pass chunk algorithm: per-chunk partial reductions, a
// serial pass over the (few) chunk totals, then a parallel re-sweep that
// scans each chunk from its offset.
#pragma once

#include <iterator>
#include <utility>

#include "px/parallel/algorithms.hpp"

namespace px::parallel {

template <typename InIt, typename OutIt, typename T, typename Op>
OutIt inclusive_scan(execution::sequenced_policy, InIt first, InIt last,
                     OutIt out, T init, Op op) {
  T acc = std::move(init);
  for (; first != last; ++first, ++out) {
    acc = op(std::move(acc), *first);
    *out = acc;
  }
  return out;
}

namespace detail {

// The parallel scans' shared body. Pass 1 folds each chunk into its
// slot; a serial pass turns the chunk totals into exclusive offsets; pass
// 2 rescans each chunk from its offset straight into the output. Output
// may alias the input: pass 2 reads each element before writing it.
template <bool Inclusive, typename InIt, typename OutIt, typename T,
          typename Op>
OutIt chunked_scan(execution::parallel_policy const& policy, InIt first,
                   InIt last, OutIt out, T init, Op& op) {
  auto const n = static_cast<std::size_t>(std::distance(first, last));
  if (n == 0) return out;

  // Both passes must see the same decomposition: resolve it once through
  // the shared planner.
  bulk_plan const plan = plan_bulk(policy, n);

  chunk_slots<T> offsets(plan.num_chunks, {init});
  bulk_run(policy, plan, n,
           [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
             T acc = first[static_cast<std::ptrdiff_t>(lo)];
             for (std::size_t i = lo + 1; i < hi; ++i)
               acc = op(std::move(acc), first[static_cast<std::ptrdiff_t>(i)]);
             offsets[chunk].value = std::move(acc);
           });

  T running = std::move(init);
  for (auto& slot : offsets) {
    T total = std::exchange(slot.value, running);
    running = op(std::move(running), std::move(total));
  }

  bulk_run(policy, plan, n,
           [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
             T acc = offsets[chunk].value;
             for (std::size_t i = lo; i < hi; ++i) {
               auto const at = static_cast<std::ptrdiff_t>(i);
               if constexpr (Inclusive) {
                 acc = op(std::move(acc), first[at]);
                 out[at] = acc;
               } else {
                 T next = op(T(acc), first[at]);
                 out[at] = std::move(acc);
                 acc = std::move(next);
               }
             }
           });
  return out + static_cast<std::ptrdiff_t>(n);
}

}  // namespace detail

template <typename InIt, typename OutIt, typename T, typename Op>
OutIt inclusive_scan(execution::parallel_policy const& policy, InIt first,
                     InIt last, OutIt out, T init, Op op) {
  return detail::chunked_scan<true>(policy, first, last, out,
                                    std::move(init), op);
}

template <typename InIt, typename OutIt, typename T, typename Op>
OutIt exclusive_scan(execution::sequenced_policy, InIt first, InIt last,
                     OutIt out, T init, Op op) {
  T acc = std::move(init);
  for (; first != last; ++first, ++out) {
    T next = op(T(acc), *first);
    *out = std::move(acc);
    acc = std::move(next);
  }
  return out;
}

template <typename InIt, typename OutIt, typename T, typename Op>
OutIt exclusive_scan(execution::parallel_policy const& policy, InIt first,
                     InIt last, OutIt out, T init, Op op) {
  return detail::chunked_scan<false>(policy, first, last, out,
                                     std::move(init), op);
}

}  // namespace px::parallel

// px/parallel/sort.hpp
// Parallel merge sort: the range is cut into per-worker runs sorted with
// std::sort, then pairs of runs merge in a tree, each merge level running
// its merges as independent tasks. Stable w.r.t. std::stable elements is
// NOT promised (std::sort per run); complexity O(n log n) work, O(n) extra
// space, O(log^2) span at the chunk granularity.
#pragma once

#include <algorithm>
#include <iterator>
#include <vector>

#include "px/lcos/latch.hpp"
#include "px/parallel/algorithms.hpp"

namespace px::parallel {

template <typename It, typename Compare = std::less<>>
void sort(execution::sequenced_policy, It first, It last, Compare comp = {}) {
  std::sort(first, last, comp);
}

template <typename It, typename Compare = std::less<>>
void sort(execution::parallel_policy const& policy, It first, It last,
          Compare comp = {}) {
  using value_type = typename std::iterator_traits<It>::value_type;
  static_assert(std::contiguous_iterator<It>,
                "parallel sort requires contiguous storage (the merge tree "
                "works on raw spans)");
  auto const n = static_cast<std::size_t>(std::distance(first, last));
  if (n < 2) return;

  rt::scheduler& sched = policy.select_scheduler();
  // Runs: next power of two >= workers, capped so runs stay >= 1024
  // elements (below that the merge overhead dominates).
  std::size_t runs = 1;
  while (runs < sched.num_workers() * 2) runs *= 2;
  while (runs > 1 && n / runs < 1024) runs /= 2;
  if (runs <= 1) {
    std::sort(first, last, comp);
    return;
  }

  // Sort the runs in parallel: a fixed plan spawns one task per run (the
  // merge tree assumes this decomposition, and runs are already coarse).
  auto run_bounds = [n, runs](std::size_t r) {
    return detail::chunk_bounds(n, runs, r);
  };
  detail::bulk_run(policy, {&sched, runs, false}, n,
                   [&](std::size_t lo, std::size_t hi, std::size_t) {
                     std::sort(first + static_cast<std::ptrdiff_t>(lo),
                               first + static_cast<std::ptrdiff_t>(hi),
                               comp);
                   });

  // Merge tree: at each level, merge adjacent sorted spans via a buffer;
  // each level runs its merges as one bulk_run over the merge index space.
  std::vector<value_type> buffer(n);
  std::size_t width = 1;  // in runs
  bool in_buffer = false;
  auto* src_first = &*first;
  value_type* a = src_first;
  value_type* b = buffer.data();
  while (width < runs) {
    std::size_t const merges = div_ceil(runs, 2 * width);
    detail::bulk_run(
        policy, {&sched, merges, false}, merges,
        [&](std::size_t mlo, std::size_t mhi, std::size_t) {
          for (std::size_t m = mlo; m < mhi; ++m) {
            std::size_t const lo_run = m * 2 * width;
            std::size_t const lo = run_bounds(lo_run).begin;
            std::size_t const mid_run = lo_run + width;
            std::size_t const mid =
                mid_run < runs ? run_bounds(mid_run).begin : n;
            std::size_t const hi_run = lo_run + 2 * width;
            std::size_t const hi =
                hi_run < runs ? run_bounds(hi_run).begin : n;
            std::merge(a + lo, a + mid, a + mid, a + hi, b + lo, comp);
          }
        });
    std::swap(a, b);
    in_buffer = !in_buffer;
    width *= 2;
  }
  if (in_buffer) {
    // Final copy back into the caller's range, in parallel.
    detail::bulk_run(policy, n,
                     [&](std::size_t lo, std::size_t hi) {
                       std::copy(a + lo, a + hi,
                                 first + static_cast<std::ptrdiff_t>(lo));
                     });
  }
}

template <typename It, typename Compare = std::less<>>
[[nodiscard]] bool is_sorted(execution::parallel_policy const& policy,
                             It first, It last, Compare comp = {}) {
  auto const n = static_cast<std::size_t>(std::distance(first, last));
  if (n < 2) return true;
  std::atomic<bool> sorted{true};
  detail::bulk_run(policy, n - 1,
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i)
                       if (comp(first[static_cast<std::ptrdiff_t>(i + 1)],
                                first[static_cast<std::ptrdiff_t>(i)])) {
                         sorted.store(false, std::memory_order_relaxed);
                         return;
                       }
                   });
  return sorted.load();
}

}  // namespace px::parallel

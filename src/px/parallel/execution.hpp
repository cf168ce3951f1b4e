// px/parallel/execution.hpp
// Execution policies in the ISO C++ style HPX exposes: px::execution::seq,
// px::execution::par, composable with `.on(executor)` and `.with(chunk)`.
//
// A policy is also a *spawn target*: select_scheduler() resolves the one
// scheduler every task spawned under the policy flows through — the bound
// executor's scheduler, or the ambient worker's. All parallel-algorithm
// headers, async_on(policy, ...) and the benches resolve through this
// single helper, which is what lets the counter registry observe every
// spawn at exactly one choke point (scheduler::spawn).
#pragma once

#include <cstddef>

#include "px/parallel/executors.hpp"
#include "px/support/assert.hpp"

namespace px::execution {

struct sequenced_policy {};
inline constexpr sequenced_policy seq{};

class parallel_policy {
 public:
  constexpr parallel_policy() = default;

  // Binds an executor (and thereby a scheduler). Without one, algorithms
  // use the calling worker's scheduler with default placement.
  [[nodiscard]] parallel_policy on(executor const& ex) const noexcept {
    parallel_policy p = *this;
    p.exec_ = &ex;
    return p;
  }

  // Fixes the per-task chunk size (elements per spawned task); 0 = auto.
  [[nodiscard]] parallel_policy with(std::size_t chunk_size) const noexcept {
    parallel_policy p = *this;
    p.chunk_size_ = chunk_size;
    return p;
  }

  [[nodiscard]] executor const* bound_executor() const noexcept {
    return exec_;
  }
  [[nodiscard]] std::size_t chunk_size() const noexcept { return chunk_size_; }

  // The scheduler all work spawned under this policy runs on: the bound
  // executor's, else the calling worker's. Asserts when called off-worker
  // without a bound executor — external threads must bind one (or a
  // runtime) explicitly.
  [[nodiscard]] rt::scheduler& select_scheduler() const {
    if (exec_ != nullptr) return exec_->sched();
    rt::worker* const w = rt::worker::current();
    PX_ASSERT_MSG(w != nullptr,
                  "a parallel policy without a bound executor must be used "
                  "from a px worker; use par.on(executor) from external "
                  "threads");
    return w->owner();
  }

 private:
  executor const* exec_ = nullptr;
  std::size_t chunk_size_ = 0;
};

inline constexpr parallel_policy par{};

// Chunk count without `.with()`: 8x the worker count, so stealing can
// absorb imbalance, and never more chunks than elements. A bound executor
// spawns one task per chunk; plain `par` sizes its tasks from a timed
// leading slice and uses this only as the cap on tasks per call (see
// parallel::detail::plan_bulk).
[[nodiscard]] inline std::size_t auto_num_chunks(std::size_t n,
                                                 std::size_t workers) {
  if (n == 0) return 0;
  std::size_t const target = workers * 8;
  return n < target ? n : target;
}

}  // namespace px::execution

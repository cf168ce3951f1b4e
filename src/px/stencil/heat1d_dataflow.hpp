// px/stencil/heat1d_dataflow.hpp
// The futurized 1D heat solver — the canonical ParalleX formulation (HPX's
// 1d_stencil_4): the domain is split into partitions and *every partition
// at every time step is a future*. Step t+1 of partition p is a dataflow
// node depending on partitions {p-1, p, p+1} at step t; no barriers, no
// explicit loop-carried synchronization — the DAG is the schedule, and
// ragged progress across partitions happens naturally (partition 0 can be
// at step 5 while partition 9 is still at step 2).
//
// This complements the two other 1D implementations:
//   run_heat1d             bulk-synchronous for_each per step (Listing 1)
//   run_distributed_heat1d GID-addressed partition components across
//                          localities, halos as parcels (optionally
//                          checkpointed or rebalanced)
//   run_heat1d_dataflow    this file: futures all the way down
// All three produce identical results (tested).
#pragma once

#include <memory>
#include <vector>

#include "px/lcos/async.hpp"
#include "px/lcos/sliding_semaphore.hpp"
#include "px/lcos/when_all.hpp"
#include "px/stencil/heat1d.hpp"

namespace px::stencil {

namespace detail {

// One partition's payload. shared_ptr keeps neighbours' reads alive while
// the owning future chain advances.
using partition_data = std::shared_ptr<std::vector<double> const>;

// Computes partition p at step t+1 from (left, mid, right) at step t.
// `left`/`right` are the single halo cells (global boundary cells carry
// themselves, encoded by passing the edge value unchanged).
inline partition_data heat_partition_step(double left_halo,
                                          partition_data mid,
                                          double right_halo, double k,
                                          bool is_global_left,
                                          bool is_global_right) {
  auto const& u = *mid;
  auto next = std::make_shared<std::vector<double>>(u.size());
  auto& v = *next;
  std::size_t const n = u.size();
  if (n == 1) {
    v[0] = (is_global_left || is_global_right)
               ? u[0]
               : heat_update(left_halo, u[0], right_halo, k);
  } else {
    v[0] = is_global_left ? u[0] : heat_update(left_halo, u[0], u[1], k);
    for (std::size_t x = 1; x + 1 < n; ++x)
      v[x] = heat_update(u[x - 1], u[x], u[x + 1], k);
    v[n - 1] = is_global_right
                   ? u[n - 1]
                   : heat_update(u[n - 2], u[n - 1], right_halo, k);
  }
  return next;
}

}  // namespace detail

struct heat1d_dataflow_config {
  std::size_t steps = 100;
  std::size_t partitions = 16;
  double k = 0.25;
  // Futurization throttle: at most this many time steps of futures exist
  // at once (HPX 1d_stencil_4's sliding_semaphore). 0 = unbounded — the
  // whole space-time DAG is instantiated up front.
  std::size_t max_outstanding_steps = 0;
};

// Must be called from a px task (uses the ambient scheduler for the
// dataflow nodes). Returns the final field.
inline std::vector<double> run_heat1d_dataflow(
    std::vector<double> const& initial, heat1d_dataflow_config cfg) {
  using detail::partition_data;
  std::size_t const nlp =
      std::min<std::size_t>(cfg.partitions, initial.size());
  PX_ASSERT(nlp >= 1);

  // Split into partitions (contiguous, remainder-spread).
  std::vector<future<partition_data>> current;
  current.reserve(nlp);
  {
    std::size_t const n = initial.size();
    std::size_t const base = n / nlp;
    std::size_t const extra = n % nlp;
    std::size_t lo = 0;
    for (std::size_t p = 0; p < nlp; ++p) {
      std::size_t const size = base + (p < extra ? 1 : 0);
      current.push_back(make_ready_future(partition_data(
          std::make_shared<std::vector<double>>(
              initial.begin() + static_cast<std::ptrdiff_t>(lo),
              initial.begin() + static_cast<std::ptrdiff_t>(lo + size)))));
      lo += size;
    }
  }

  double const k = cfg.k;
  // Throttle: the driver pauses building step t until step
  // t - max_outstanding has fully completed.
  auto throttle = cfg.max_outstanding_steps > 0
                      ? std::make_shared<sliding_semaphore>(
                            static_cast<std::int64_t>(
                                cfg.max_outstanding_steps),
                            -1)
                      : nullptr;

  for (std::size_t t = 0; t < cfg.steps; ++t) {
    if (throttle) throttle->wait(static_cast<std::int64_t>(t));
    std::vector<future<partition_data>> next;
    next.reserve(nlp);
    // Each partition needs shared access to its neighbours' step-t values:
    // promote to shared_futures for the fan-out.
    std::vector<shared_future<partition_data>> shared;
    shared.reserve(nlp);
    for (auto& f : current) shared.emplace_back(std::move(f));

    for (std::size_t p = 0; p < nlp; ++p) {
      bool const is_left = p == 0;
      bool const is_right = p + 1 == nlp;
      auto left = is_left ? shared[p] : shared[p - 1];
      auto mid = shared[p];
      auto right = is_right ? shared[p] : shared[p + 1];
      // dataflow over shared_futures via async once inputs are known
      // ready: chain on when_all of the three involved states.
      next.push_back(px::async([left, mid, right, k, is_left,
                                is_right]() -> partition_data {
        left.wait();
        mid.wait();
        right.wait();
        double const lh = is_left ? 0.0 : left.get()->back();
        double const rh = is_right ? 0.0 : right.get()->front();
        return detail::heat_partition_step(lh, mid.get(), rh, k, is_left,
                                           is_right);
      }));
    }
    if (throttle) {
      // Signal t once every partition of this step has completed.
      auto remaining = std::make_shared<std::atomic<std::size_t>>(nlp);
      for (auto& f : next)
        f.raw_state()->add_continuation([remaining, throttle, t] {
          if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1)
            throttle->signal(static_cast<std::int64_t>(t));
        });
    }
    current = std::move(next);
  }

  std::vector<double> out;
  out.reserve(initial.size());
  for (auto& f : current) {
    auto part = f.get();
    out.insert(out.end(), part->begin(), part->end());
  }
  return out;
}

}  // namespace px::stencil

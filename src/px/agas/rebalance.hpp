// px/agas/rebalance.hpp
// Load-driven AGAS rebalancer (the hpx5 libhpx/gas/agas rebalancing design
// point): applications register their movable partitions (GID + abstract
// work weight), the rebalancer periodically folds per-locality load
// signals — registered partition weights and degraded-health penalties
// (failure-detector `suspect`, fault-plane `slow_by`) — into one load
// vector, and migrates hot partitions from the most-loaded locality toward
// the least-loaded one until the imbalance ratio drops under the trigger.
//
// The planning half (plan_moves) is a pure function over (loads,
// partitions); px::arch's skewed-cluster simulator runs the same planner
// at ≥256 virtual localities, so policy tuning done against the analytic
// model transfers to the runtime unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "px/agas/gid.hpp"
#include "px/lcos/future.hpp"
#include "px/support/spin.hpp"

namespace px::dist {
class distributed_domain;
}

namespace px::agas {

struct rebalance_config {
  // Master switch; a disabled rebalancer plans and moves nothing.
  bool enabled = true;
  // A pass only acts when max(load)/mean(load) exceeds this.
  double imbalance_trigger = 1.25;
  // Migration is not free: cap the moves per pass so a pass never costs
  // more than it can recover before the next one.
  std::size_t max_moves_per_pass = 4;
  // Partitions lighter than this are never worth shipping.
  double min_move_weight = 0.0;
};

// max(load)/mean(load) over the eligible entries; 1.0 is perfectly flat.
// Entries < 0 mark ineligible (dead) localities and are skipped.
[[nodiscard]] double load_imbalance(std::vector<double> const& loads);

struct partition_load {
  std::uint64_t key = 0;  // application-assigned stable partition id
  std::uint32_t home = 0;
  double weight = 1.0;
};

struct planned_move {
  std::uint64_t key = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  double weight = 0.0;
};

// Pure greedy planner: repeatedly move the best-fitting partition off the
// hottest locality onto the coldest until the trigger is satisfied, no
// strictly improving move exists, or the per-pass budget is spent. `loads`
// are the health-scaled per-locality totals (including the partitions'
// weights); entries < 0 mark localities that must be neither source nor
// target (confirmed dead). Deterministic: ties break toward the lowest
// locality id / partition key.
[[nodiscard]] std::vector<planned_move> plan_moves(
    std::vector<double> loads, std::vector<partition_load> parts,
    rebalance_config const& cfg);

class rebalancer {
 public:
  // Executes one planned move: migrate the partition (current home is
  // `from`) to `to`, returning the future of the post-migration GID. Runs
  // in the task that called step(), so it may issue remote calls.
  using mover_fn =
      std::function<future<gid>(gid g, std::uint32_t from, std::uint32_t to)>;

  rebalancer(dist::distributed_domain& dom, rebalance_config cfg,
             mover_fn mover);

  rebalancer(rebalancer const&) = delete;
  rebalancer& operator=(rebalancer const&) = delete;

  [[nodiscard]] rebalance_config const& config() const noexcept {
    return cfg_;
  }

  // Registers/forgets a movable partition. `weight` is the application's
  // abstract work estimate (cells, requests/s, ...).
  void add_partition(std::uint64_t key, gid g, std::uint32_t home,
                     double weight);
  void remove_partition(std::uint64_t key);
  // Current tracked home (as of the last successful move / registration).
  [[nodiscard]] std::optional<std::uint32_t> home_of(std::uint64_t key) const;

  // Health-scaled per-locality load vector: registered partition weights,
  // multiplied on a degraded (suspect or slowed) locality; dead localities
  // come back as -1 (ineligible).
  [[nodiscard]] std::vector<double> loads() const;

  struct pass_report {
    std::size_t planned = 0;
    std::size_t moved = 0;   // migrations that committed
    std::size_t failed = 0;  // planned moves whose migration failed
    // Planned moves refused because an endpoint was fenced (minority side
    // of a partition, px/dist/membership.hpp); retried after heal.
    std::size_t fenced = 0;
    double imbalance_before = 1.0;
    double imbalance_after = 1.0;  // recomputed from tracked homes
  };

  // One synchronous rebalancing pass: read loads, plan, execute the moves
  // (waiting on each migration), update tracked homes. Must run in a px
  // task (the movers issue remote calls). A disabled rebalancer returns an
  // empty report — callers can invoke step() unconditionally at their
  // period boundaries.
  pass_report step();

  // Total committed moves across all passes.
  [[nodiscard]] std::uint64_t total_moves() const noexcept {
    return total_moves_;
  }

 private:
  struct part {
    gid g;
    std::uint32_t home = 0;
    double weight = 1.0;
  };

  dist::distributed_domain& dom_;
  rebalance_config const cfg_;
  mover_fn mover_;
  mutable spinlock lock_;
  std::vector<std::pair<std::uint64_t, part>> parts_;  // sorted by key
  std::uint64_t total_moves_ = 0;
};

}  // namespace px::agas

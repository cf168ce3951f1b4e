// px/stencil/heat1d_distributed.hpp
// The fully distributed 1D heat solver of §V-A. The domain is split into
// partitions, each an AGAS component (its slab plus two halo mailboxes)
// addressed purely by GID; partition p starts on locality p % nloc. Every
// time step each partition
//   1. ships its edge cells to both neighbours (halo parcels),
//   2. updates its interior — which needs no remote data, so the network
//      latency hides under this compute (the latency-hiding design the
//      paper credits for its flat weak scaling),
//   3. receives the two halos (suspending the task, not the worker) and
//      updates its edge cells.
// Partition-internal parallelism uses the same for_each structure as the
// shared-memory solver. The answer is bitwise independent of the split and
// of where partitions live.
//
// Two options ride on the same component (docs/ARCHITECTURE.md §4.2,
// §4.4):
//  * Checkpointing (checkpoint_interval K > 0): every partition snapshots
//    its slab every K steps into its own locality's checkpoint store *and*
//    a buddy locality's (the host of the cyclically next partition). When
//    the failure detector confirms a death, the driver remaps the lost
//    partitions onto survivors, rolls every partition back to the newest
//    step all of them can restore, and replays on fresh components. Replay
//    from bitwise-identical checkpoints is deterministic, so the final
//    field is bitwise identical to a fault-free run.
//  * Rebalancing (rebalance_cfg.enabled): the solve runs in rounds of
//    steps_per_round steps, and between rounds the px::agas rebalancer
//    migrates hot partitions toward idle localities. A zipf split
//    (zipf_s > 0) gives it a skewed load to fix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "px/agas/rebalance.hpp"
#include "px/dist/distributed_domain.hpp"

namespace px::stencil {

struct dist_heat_config {
  std::size_t nx_total = 1 << 20;  // global stencil points
  std::size_t steps = 100;
  double k = 0.25;  // Eq. 3 coefficient (alpha dt / dx^2)
  // Checkpoint every K steps (0 = checkpointing off). Recovery rolls back
  // to the newest multiple of K for which every partition has a surviving
  // checkpoint (step 0 — the initial condition — always qualifies).
  std::size_t checkpoint_interval = 0;
  // Distinct confirmed-failure recoveries tolerated before the run gives
  // up and rethrows. Locality 0 hosts the driver (the "console"); its
  // death is never recoverable.
  std::size_t max_recoveries = 4;
  std::size_t partitions = 0;  // 0 = one per locality
  double zipf_s = 0.0;  // partition-size skew exponent (0 = uniform)
  // Rebalancer period: with rebalancing on, rounds of this many steps run
  // to a barrier, then the rebalancer gets one pass. With it off the whole
  // solve is one round.
  std::uint64_t steps_per_round = 8;
  // Extra per-cell compute per step (repeated smoothing of a scratch
  // copy, discarded). Models solvers whose per-cell work dwarfs the
  // 3-point stencil; gives the rebalancer a real imbalance to fix without
  // perturbing the field values.
  std::uint32_t compute_cost = 0;
  // Rebalancing is off unless enabled here. Not combinable with
  // checkpointing (std::invalid_argument).
  agas::rebalance_config rebalance_cfg{.enabled = false};
};

struct dist_heat_result {
  double seconds = 0.0;            // solve-phase wall time (loc 0's clock)
  double points_per_second = 0.0;
  std::vector<double> values;      // gathered global field
  std::uint64_t halo_messages = 0; // fabric messages exchanged
  std::size_t recoveries = 0;      // rollback-replay rounds performed
  std::uint64_t rounds = 0;        // step rounds of the completed attempt
  std::uint64_t migrations = 0;    // committed rebalancer moves
  std::vector<double> round_seconds;  // driver-side wall time per round
  double imbalance_initial = 1.0;  // partition-weight imbalance at start
  double imbalance_final = 1.0;    // after the last rebalance pass
};

// Deterministic zipf split: sizes[p] ∝ 1/(p+1)^s, every partition ≥ 2
// cells, sizes sum to exactly nx_total (largest partition absorbs the
// rounding residue). s = 0 is the uniform split. Requires
// nx_total ≥ 2 * parts.
[[nodiscard]] std::vector<std::size_t> zipf_partition_sizes(
    std::size_t nx_total, std::size_t parts, double s);

// Runs the solver across every locality of `dom`. `initial` must have at
// least two cells per partition; boundaries are Dirichlet. Returns the
// gathered field. Surviving an injected locality fail-stop requires the
// domain's failure detector (domain_config::resilience); without a
// checkpoint_interval recovery replays from step 0. Unrecoverable failures
// surface as px::dist::locality_down.
[[nodiscard]] dist_heat_result run_distributed_heat1d(
    px::dist::distributed_domain& dom, std::vector<double> const& initial,
    dist_heat_config cfg);

}  // namespace px::stencil

// px/arch/cluster_sim.hpp
// Discrete-event simulation of the distributed 1D solver on an N-node
// cluster of a modeled machine: per step, every node ships its edge cells
// to both neighbours, computes its interior (hiding the transfer), waits
// for the two halos, computes its edge cells, then starts the next step.
// The makespan emerges from the interleaving — the same latency-hiding
// mechanism the real px solver implements in-process — rather than from a
// closed-form fit. The Fig 3 bench prints both and their agreement.
#pragma once

#include <cstddef>
#include <cstdint>

#include "px/agas/rebalance.hpp"
#include "px/arch/machine.hpp"
#include "px/net/fabric.hpp"

namespace px::arch {

struct cluster_sim_config {
  std::size_t nodes = 8;
  std::size_t steps = 100;
  double total_points = 1.2e9;  // split evenly over nodes
  // Per-halo-message payload on the wire.
  std::size_t halo_bytes = 8;

  // Node compute throughput (points/s); 0 = use the machine's calibrated
  // 1D application rate. Must not be negative.
  double node_rate_pts_per_s = 0.0;
  // Per-step runtime overhead when distributed (AGAS bookkeeping, parcel
  // handling). Sentinel -1 = derive from the machine's calibrated
  // strong-scaling overhead; 0 is honoured as literally no overhead.
  double per_step_overhead_s = derive;
  // NIC-starvation background cost (s per local point per extra node and
  // step); models the Kunpeng 916 host's inability to drive the HCA.
  // Sentinel -1 = derive (the Kunpeng fit when the machine is calibrated
  // for it, else 0); 0 is honoured as no starvation.
  double starvation_s_per_point_per_node = derive;

  // The only accepted negative value for the two fields above;
  // simulate_heat1d_cluster asserts on any other negative input.
  static constexpr double derive = -1.0;
};

struct cluster_sim_result {
  double makespan_s = 0.0;        // end of the last node's last step
  double exposed_wait_s = 0.0;    // total time nodes sat waiting on halos
  std::uint64_t messages = 0;
  std::uint64_t des_events = 0;
};

// Simulates the protocol for `m` over `fabric`. Deterministic.
[[nodiscard]] cluster_sim_result simulate_heat1d_cluster(
    machine const& m, net::fabric_model const& fabric,
    cluster_sim_config cfg);

// Convenience wrappers matching the Fig 3 workloads (strong: 1.2e9 points
// total; weak: 480e6 points per node), using each machine's own fabric
// preset (Hi1616 NIC for Kunpeng, EDR otherwise, Tofu-D for A64FX).
[[nodiscard]] double simulated_strong_time_s(machine const& m,
                                             std::size_t nodes);
[[nodiscard]] double simulated_weak_time_s(machine const& m,
                                           std::size_t nodes);

// The fabric preset the paper's clusters pair with each machine.
[[nodiscard]] net::fabric_model fabric_for(machine const& m);

// Extension experiment: multi-node 2D Jacobi (row-block decomposition,
// one halo *row* per neighbour per step — nx scalars on the wire, so the
// fabric's bandwidth term participates, unlike the 1D solver's 8-byte
// halos). Node compute rate comes from the 2D kernel model at full node.
struct cluster2d_config {
  std::size_t nodes = 8;
  std::size_t steps = 100;
  std::size_t nx = 8192;
  std::size_t ny_total = 131072;
  std::size_t scalar_bytes = 4;
  bool explicit_vector = true;
};

[[nodiscard]] cluster_sim_result simulate_jacobi2d_cluster(
    machine const& m, net::fabric_model const& fabric,
    cluster2d_config cfg);

// ---- checkpoint/restart cost model --------------------------------------
// Companion to the in-process resilience machinery (px/resilience + the
// checkpointing option of run_distributed_heat1d): what does the buddy-checkpoint/rollback
// protocol cost at cluster scale on a modeled machine? The failure-free
// phases run through the same DES as simulate_heat1d_cluster; the
// checkpoint, detection and restore costs compose on top analytically.

struct cluster_resilience_config {
  // Step at which one node fail-stops; no_failure = clean run.
  std::uint64_t fail_stop_step = no_failure;
  // Checkpoint every K steps (0 = off; an off checkpoint with a failure
  // replays from step 0).
  std::size_t checkpoint_interval = 0;
  // Wall time one synchronous buddy-checkpoint round adds to the critical
  // path (slab serialization + transfer + ack).
  double checkpoint_write_s = 1e-3;
  // Heartbeat silence until the failure is confirmed (suspect + confirm
  // thresholds of the detector).
  double detect_confirm_s = 50e-3;
  // Fetching the lost partitions from buddies and rescattering state.
  double restore_s = 10e-3;

  static constexpr std::uint64_t no_failure = ~std::uint64_t{0};
};

struct cluster_resilience_result {
  double makespan_s = 0.0;           // end-to-end including recovery
  double checkpoint_overhead_s = 0.0;
  double lost_work_s = 0.0;          // computed then rolled back
  double recovery_s = 0.0;           // detection + restore
  std::uint64_t replayed_steps = 0;
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t messages = 0;
  std::uint64_t des_events = 0;
};

// Simulates a (possibly failing) resilient run: DES up to the failure,
// detection + restore, DES replay from the newest covered checkpoint —
// plus the checkpoint rounds' critical-path cost. Deterministic.
[[nodiscard]] cluster_resilience_result simulate_heat1d_cluster_resilient(
    machine const& m, net::fabric_model const& fabric,
    cluster_sim_config cfg, cluster_resilience_config rcfg);

// ---- skewed-load AGAS rebalancing model ----------------------------------
// Companion to px::agas::rebalancer at cluster scale: zipf-sized solver
// partitions placed over N modeled nodes, solved in rounds with one
// rebalancer pass per round boundary. The planner is the runtime's own
// px::agas::plan_moves — this model exists so rebalancing policy can be
// tuned at 256..1024 virtual localities, far beyond what the in-process
// virtual cluster can execute, and transfer unchanged.

// Initial placement of the zipf-sized partitions.
//   round_robin — p % nodes, the live solver's default: the zipf head
//     lands on distinct nodes, so most of the remaining imbalance is one
//     indivisible giant partition the planner cannot split.
//   blocked — contiguous blocks (p * nodes / partitions): the zipf head
//     stacks on the low nodes, the overload profile the rebalancer is for.
enum class skewed_placement { round_robin, blocked };

struct skewed_cluster_config {
  std::size_t nodes = 256;
  std::size_t partitions = 1024;  // zipf-sized
  std::size_t rounds = 32;
  std::size_t steps_per_round = 8;
  double total_points = 1.2e9;
  double zipf_s = 1.1;            // partition-size skew exponent
  skewed_placement placement = skewed_placement::round_robin;
  // Serialized partition state per point (migration payload).
  std::size_t bytes_per_point = 8;
  bool rebalance = true;
  agas::rebalance_config policy;  // the runtime planner's knobs, verbatim
  // Node compute throughput (points/s); 0 = machine's calibrated 1D rate.
  double node_rate_pts_per_s = 0.0;
};

struct skewed_cluster_result {
  double makespan_s = 0.0;
  double migration_s = 0.0;  // critical-path time spent migrating
  std::uint64_t migrations = 0;
  double imbalance_initial = 1.0;  // max/mean node load before round 0
  double imbalance_final = 1.0;    // after the last rebalance pass
  // Modeled per-step time within each round (max-loaded node's compute +
  // halo exchange); step-time tail percentiles come from weighting each
  // entry by steps_per_round.
  std::vector<double> round_step_s;
};

// Analytic cost of migrating `bytes` of component state between two nodes
// of machine `m` over `fabric`: serialize + deserialize at memory
// bandwidth, the state transfer on the wire, and the arrival-ack + commit
// control round trips of the transactional departure protocol.
[[nodiscard]] double migration_cost_s(machine const& m,
                                      net::fabric_model const& fabric,
                                      std::size_t bytes);

// Deterministic; rebalance=false gives the static-placement baseline.
[[nodiscard]] skewed_cluster_result simulate_skewed_cluster(
    machine const& m, net::fabric_model const& fabric,
    skewed_cluster_config cfg);

}  // namespace px::arch

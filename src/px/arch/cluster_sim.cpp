#include "px/arch/cluster_sim.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "px/arch/des.hpp"
#include "px/arch/scaling_model.hpp"
#include "px/support/assert.hpp"

namespace px::arch {
namespace {

// Per-node, per-step protocol state.
struct node_state {
  std::size_t step = 0;
  bool compute_done = false;
  int halos_pending = 0;   // for the current step
  double wait_started = -1.0;
  double exposed_wait = 0.0;
  double finished_at = 0.0;
};

struct simulation {
  simulation(machine const& m, net::fabric_model const& fab,
             cluster_sim_config c)
      : cfg(c), fabric(fab), nodes(c.nodes) {
    heat1d_params const params = heat1d_params_for(m);
    rate = cfg.node_rate_pts_per_s > 0.0 ? cfg.node_rate_pts_per_s
                                         : params.node_rate_pts_per_s;
    local_points = cfg.total_points / static_cast<double>(cfg.nodes);
    if (cfg.per_step_overhead_s >= 0.0) {
      step_overhead = cfg.per_step_overhead_s;
    } else {
      // The calibrated total non-overlapped overhead alpha*(1-1/n),
      // spread uniformly over the steps.
      double const n = static_cast<double>(cfg.nodes);
      step_overhead = cfg.nodes > 1
                          ? params.strong_overhead_s * (1.0 - 1.0 / n) /
                                static_cast<double>(cfg.steps)
                          : 0.0;
    }
    double const starvation =
        cfg.starvation_s_per_point_per_node >= 0.0
            ? cfg.starvation_s_per_point_per_node
            : (params.strong_per_node_s > 0.0 || params.weak_per_node_s > 0.0
                   ? 4.5e-11  // Kunpeng NIC-starvation fit (see DESIGN.md)
                   : 0.0);
    background_per_step =
        starvation * local_points * static_cast<double>(cfg.nodes - 1);

    // One-way halo transfer time (payload + parcel framing).
    transfer = fabric.transfer_time_us(cfg.halo_bytes + 48) * 1e-6;
    state.resize(cfg.nodes);
  }

  [[nodiscard]] int neighbours(std::size_t i) const {
    return (i > 0 ? 1 : 0) + (i + 1 < nodes ? 1 : 0);
  }

  void start_step(std::size_t i) {
    node_state& ns = state[i];
    ns.compute_done = false;
    ns.halos_pending = neighbours(i);
    ns.wait_started = -1.0;

    // 1. Halos leave immediately; arrival at the neighbour after the
    //    modeled transfer (the paper's overlap design).
    double const t = engine.now();
    if (i > 0) send_halo(i - 1, ns.step, t);
    if (i + 1 < nodes) send_halo(i + 1, ns.step, t);

    // 2. Interior compute + per-step runtime overhead + NIC-starvation
    //    background work.
    double const interior =
        (local_points - static_cast<double>(neighbours(i))) / rate;
    engine.schedule_after(interior + step_overhead + background_per_step,
                          [this, i] { compute_finished(i); });
  }

  void send_halo(std::size_t dest, std::size_t step, double sent_at) {
    ++messages;
    engine.schedule_at(sent_at + transfer, [this, dest, step] {
      halo_arrived(dest, step);
    });
  }

  void compute_finished(std::size_t i) {
    node_state& ns = state[i];
    ns.compute_done = true;
    if (ns.halos_pending == 0) {
      finish_step(i);
    } else {
      ns.wait_started = engine.now();  // exposed communication begins
    }
  }

  void halo_arrived(std::size_t i, std::size_t step) {
    node_state& ns = state[i];
    if (step != ns.step) {
      // Early halo from a faster neighbour's *next* step: buffer it by
      // re-delivering when this node advances (the px implementation's
      // step-keyed mailbox). Model: retry at the node's current horizon.
      pending_early.push_back({i, step});
      return;
    }
    PX_ASSERT(ns.halos_pending > 0);
    --ns.halos_pending;
    if (ns.halos_pending == 0 && ns.compute_done) {
      if (ns.wait_started >= 0.0)
        ns.exposed_wait += engine.now() - ns.wait_started;
      finish_step(i);
    }
  }

  void finish_step(std::size_t i) {
    // 3. Edge cells (two updates; negligible but kept for fidelity).
    double const edges = static_cast<double>(neighbours(i)) / rate;
    engine.schedule_after(edges, [this, i] {
      node_state& n2 = state[i];
      ++n2.step;
      n2.finished_at = engine.now();
      if (n2.step < cfg.steps) {
        start_step(i);
        redeliver_early(i);
      }
    });
  }

  void redeliver_early(std::size_t i) {
    for (auto it = pending_early.begin(); it != pending_early.end();) {
      if (it->first == i && it->second == state[i].step) {
        auto const step = it->second;
        it = pending_early.erase(it);
        engine.schedule_after(0.0,
                              [this, i, step] { halo_arrived(i, step); });
      } else {
        ++it;
      }
    }
  }

  cluster_sim_result run() {
    for (std::size_t i = 0; i < nodes; ++i) start_step(i);
    engine.run();
    cluster_sim_result res;
    for (auto const& ns : state) {
      PX_ASSERT_MSG(ns.step == cfg.steps, "node did not finish all steps");
      res.makespan_s = std::max(res.makespan_s, ns.finished_at);
      res.exposed_wait_s += ns.exposed_wait;
    }
    res.messages = messages;
    res.des_events = engine.events_processed();
    return res;
  }

  cluster_sim_config cfg;
  net::fabric_model fabric;
  std::size_t nodes;
  double rate = 0.0;
  double local_points = 0.0;
  double step_overhead = 0.0;
  double background_per_step = 0.0;
  double transfer = 0.0;
  std::uint64_t messages = 0;
  des_engine engine;
  std::vector<node_state> state;
  std::vector<std::pair<std::size_t, std::size_t>> pending_early;
};

}  // namespace

cluster_sim_result simulate_heat1d_cluster(machine const& m,
                                           net::fabric_model const& fabric,
                                           cluster_sim_config cfg) {
  PX_ASSERT(cfg.nodes >= 1 && cfg.steps >= 1);
  PX_ASSERT_MSG(cfg.node_rate_pts_per_s >= 0.0,
                "node_rate_pts_per_s must be >= 0 (0 = derive)");
  PX_ASSERT_MSG(cfg.per_step_overhead_s >= 0.0 ||
                    cfg.per_step_overhead_s == cluster_sim_config::derive,
                "per_step_overhead_s: only -1 (derive) may be negative");
  PX_ASSERT_MSG(cfg.starvation_s_per_point_per_node >= 0.0 ||
                    cfg.starvation_s_per_point_per_node ==
                        cluster_sim_config::derive,
                "starvation_s_per_point_per_node: only -1 (derive) may be "
                "negative");
  simulation sim(m, fabric, cfg);
  return sim.run();
}

net::fabric_model fabric_for(machine const& m) {
  if (m.short_name == "kunpeng916") return net::hi1616_nic();
  if (m.short_name == "a64fx") return net::tofu_d();
  return net::infiniband_edr();
}

double simulated_strong_time_s(machine const& m, std::size_t nodes) {
  cluster_sim_config cfg;
  cfg.nodes = nodes;
  cfg.steps = heat1d_steps;
  cfg.total_points = heat1d_strong_points;
  return simulate_heat1d_cluster(m, fabric_for(m), cfg).makespan_s;
}

double simulated_weak_time_s(machine const& m, std::size_t nodes) {
  cluster_sim_config cfg;
  cfg.nodes = nodes;
  cfg.steps = heat1d_steps;
  cfg.total_points =
      heat1d_weak_points_per_node * static_cast<double>(nodes);
  return simulate_heat1d_cluster(m, fabric_for(m), cfg).makespan_s;
}

cluster_resilience_result simulate_heat1d_cluster_resilient(
    machine const& m, net::fabric_model const& fabric,
    cluster_sim_config cfg, cluster_resilience_config rcfg) {
  PX_ASSERT(cfg.steps >= 1);
  PX_ASSERT_MSG(rcfg.checkpoint_write_s >= 0.0 &&
                    rcfg.detect_confirm_s >= 0.0 && rcfg.restore_s >= 0.0,
                "resilience costs must be non-negative");
  std::size_t const ck = rcfg.checkpoint_interval;
  // Checkpoint rounds taken in a window of steps (t0, t0 + n]: every
  // multiple of K strictly inside the computed range, matching the
  // in-process solver (no round at the rollback point itself).
  auto rounds_in = [ck](std::uint64_t t0, std::uint64_t t_end) {
    if (ck == 0 || t_end <= t0) return std::uint64_t{0};
    return (t_end - 1) / ck - t0 / ck;
  };

  cluster_resilience_result res;
  bool const fails = rcfg.fail_stop_step != cluster_resilience_config::no_failure &&
                     rcfg.fail_stop_step < cfg.steps;
  if (!fails) {
    auto const clean = simulate_heat1d_cluster(m, fabric, cfg);
    res.checkpoints_taken = rounds_in(0, cfg.steps);
    res.checkpoint_overhead_s =
        static_cast<double>(res.checkpoints_taken) * rcfg.checkpoint_write_s;
    res.makespan_s = clean.makespan_s + res.checkpoint_overhead_s;
    res.messages = clean.messages;
    res.des_events = clean.des_events;
    return res;
  }

  std::uint64_t const f = rcfg.fail_stop_step;
  // Newest step every partition can roll back to: the last checkpoint
  // round completed strictly before the failure (or 0, the initial field).
  std::uint64_t const rollback = ck != 0 ? (f / ck) * ck : 0;

  // Phase 1: everyone advances to the failure step.
  cluster_sim_config to_fail = cfg;
  to_fail.steps = static_cast<std::size_t>(f == 0 ? 1 : f);
  auto const before = simulate_heat1d_cluster(m, fabric, to_fail);

  // Phase 2: replay from the rollback point to completion.
  cluster_sim_config replay = cfg;
  replay.steps = cfg.steps - static_cast<std::size_t>(rollback);
  auto const after = simulate_heat1d_cluster(m, fabric, replay);

  res.replayed_steps = f - rollback;
  res.checkpoints_taken = rounds_in(0, f) + rounds_in(rollback, cfg.steps);
  res.checkpoint_overhead_s =
      static_cast<double>(res.checkpoints_taken) * rcfg.checkpoint_write_s;
  res.recovery_s = rcfg.detect_confirm_s + rcfg.restore_s;
  // Work computed between the rollback point and the failure is thrown
  // away: approximate its wall cost by the per-step share of the pre-fail
  // makespan.
  res.lost_work_s = f != 0 ? before.makespan_s *
                                 (static_cast<double>(res.replayed_steps) /
                                  static_cast<double>(to_fail.steps))
                           : 0.0;
  res.makespan_s = before.makespan_s + res.recovery_s + after.makespan_s +
                   res.checkpoint_overhead_s;
  res.messages = before.messages + after.messages;
  res.des_events = before.des_events + after.des_events;
  return res;
}

cluster_sim_result simulate_jacobi2d_cluster(machine const& m,
                                             net::fabric_model const& fabric,
                                             cluster2d_config cfg) {
  // Same protocol shape as the 1D solver — the generic simulation runs it
  // with 2D parameters: LUPs as "points", the full-node 2D kernel rate,
  // and whole halo rows on the wire.
  stencil2d_model model(m);
  cluster_sim_config base;
  base.nodes = cfg.nodes;
  base.steps = cfg.steps;
  base.total_points = static_cast<double>(cfg.nx) *
                      static_cast<double>(cfg.ny_total);
  base.halo_bytes = cfg.nx * cfg.scalar_bytes;
  base.node_rate_pts_per_s =
      model.glups(m.total_cores(), cfg.scalar_bytes, cfg.explicit_vector) *
      1e9;
  // Reuse the 1D-calibrated per-step runtime overhead; zero starvation
  // unless the machine is the NIC-starved one (same mechanism applies).
  base.per_step_overhead_s = cluster_sim_config::derive;
  return simulate_heat1d_cluster(m, fabric, base);
}

// ---- skewed-load AGAS rebalancing model ----------------------------------

double migration_cost_s(machine const& m, net::fabric_model const& fabric,
                        std::size_t bytes) {
  // Serialize at the source + deserialize at the destination: one full
  // pass over the state each, at a single NUMA domain's copy bandwidth
  // (migration runs in one task, not a full-node parallel copy).
  double const domain_gbs =
      m.stream_peak_gbs > 0.0
          ? m.stream_peak_gbs /
                static_cast<double>(std::max<std::size_t>(1, m.numa_domains))
          : 10.0;
  double const codec_s = 2.0 * static_cast<double>(bytes) / (domain_gbs * 1e9);
  // State on the wire (payload + parcel framing), then the arrival ack and
  // the commit/tombstone write-back — two control messages on the
  // transactional departure's critical path.
  double const wire_s = fabric.transfer_time_us(bytes + 48) * 1e-6;
  double const control_s = 2.0 * fabric.transfer_time_us(48) * 1e-6;
  return codec_s + wire_s + control_s;
}

skewed_cluster_result simulate_skewed_cluster(machine const& m,
                                              net::fabric_model const& fabric,
                                              skewed_cluster_config cfg) {
  PX_ASSERT(cfg.nodes >= 2 && cfg.partitions >= cfg.nodes);
  double const rate = cfg.node_rate_pts_per_s > 0.0
                          ? cfg.node_rate_pts_per_s
                          : heat1d_params_for(m).node_rate_pts_per_s;
  PX_ASSERT(rate > 0.0);

  // Zipf partition sizes in points: |p| ∝ 1/(p+1)^s, placed per
  // cfg.placement (see skewed_placement), at model scale.
  std::vector<agas::partition_load> parts(cfg.partitions);
  {
    double total_w = 0.0;
    for (std::size_t p = 0; p < cfg.partitions; ++p)
      total_w += 1.0 / std::pow(static_cast<double>(p + 1), cfg.zipf_s);
    for (std::size_t p = 0; p < cfg.partitions; ++p) {
      parts[p].key = p;
      parts[p].home = static_cast<std::uint32_t>(
          cfg.placement == skewed_placement::blocked
              ? p * cfg.nodes / cfg.partitions
              : p % cfg.nodes);
      parts[p].weight = cfg.total_points *
                        (1.0 / std::pow(static_cast<double>(p + 1),
                                        cfg.zipf_s)) /
                        total_w;
    }
  }

  auto node_loads = [&] {
    std::vector<double> loads(cfg.nodes, 0.0);
    for (auto const& p : parts) loads[p.home] += p.weight;
    return loads;
  };

  // Per-step halo cost (8-byte halos, as in the 1D protocol) paid once per
  // step regardless of placement; compute is the max-loaded node.
  double const halo_s = fabric.transfer_time_us(8 + 48) * 1e-6;

  skewed_cluster_result res;
  res.imbalance_initial = agas::load_imbalance(node_loads());
  res.imbalance_final = res.imbalance_initial;

  agas::rebalance_config policy = cfg.policy;
  policy.enabled = policy.enabled && cfg.rebalance;

  res.round_step_s.reserve(cfg.rounds);
  for (std::size_t r = 0; r < cfg.rounds; ++r) {
    auto loads = node_loads();
    double max_load = 0.0;
    for (double l : loads) max_load = std::max(max_load, l);
    res.round_step_s.push_back(max_load / rate + halo_s);
    res.makespan_s += static_cast<double>(cfg.steps_per_round) *
                      (max_load / rate + halo_s);

    if (r + 1 == cfg.rounds) break;
    auto const moves = agas::plan_moves(loads, parts, policy);
    if (moves.empty()) continue;
    // Moves at one boundary overlap across disjoint node pairs; the
    // boundary costs the busiest endpoint's total.
    std::vector<double> endpoint_s(cfg.nodes, 0.0);
    for (auto const& mv : moves) {
      auto const bytes = static_cast<std::size_t>(
          mv.weight * static_cast<double>(cfg.bytes_per_point));
      double const cost = migration_cost_s(m, fabric, bytes);
      endpoint_s[mv.from] += cost;
      endpoint_s[mv.to] += cost;
      for (auto& p : parts)
        if (p.key == mv.key) p.home = mv.to;
    }
    double boundary_s = 0.0;
    for (double s : endpoint_s) boundary_s = std::max(boundary_s, s);
    res.migration_s += boundary_s;
    res.makespan_s += boundary_s;
    res.migrations += moves.size();
  }
  res.imbalance_final = agas::load_imbalance(node_loads());
  return res;
}

}  // namespace px::arch

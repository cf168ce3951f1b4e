#include "px/stencil/heat1d_distributed.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "px/dist/migration.hpp"
#include "px/parallel/algorithms.hpp"
#include "px/resilience/checkpoint.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/step_mailbox.hpp"
#include "px/support/timer.hpp"

namespace px::stencil {
namespace {

using buffer = std::vector<double, aligned_allocator<double, 64>>;

// Mailboxes live behind a shared_ptr so the component stays movable (the
// migration layer materializes arrivals by move) and so the confirm hook
// can poison them through a weak reference.
struct halo_mailboxes {
  step_mailbox<double> from_left;
  step_mailbox<double> from_right;
};

// The partition component: one slab plus its halo endpoints, addressed
// only by GID. The rebalancer may move it between rounds; a recovery
// attempt replaces it with a fresh component. GIDs are never reused, so a
// halo still in flight from an aborted attempt lands on an unbound GID and
// is dropped — it can never leak into the replay.
struct heat_partition {
  std::uint64_t partition = 0;  // index: the checkpoint key
  double k = 0.0;
  std::uint32_t compute_cost = 0;
  std::uint64_t checkpoint_interval = 0;
  std::uint32_t buddy = 0;  // locality holding the checkpoint replica
  buffer slab;
  std::shared_ptr<halo_mailboxes> mail = std::make_shared<halo_mailboxes>();

  template <typename Archive>
  void serialize(Archive& ar) {
    ar& partition& k& compute_cost& checkpoint_interval& buddy& slab;
    // Halos buffered but not yet consumed travel with the object: the
    // round barrier guarantees the mailboxes are empty between rounds,
    // but a put racing the pin (parked, re-delivered, landed just before
    // departure) must not be dropped on the floor.
    if constexpr (Archive::is_saving) {
      auto left = mail->from_left.drain_pending();
      auto right = mail->from_right.drain_pending();
      ar& left& right;
    } else {
      std::vector<std::pair<std::uint64_t, double>> left, right;
      ar& left& right;
      mail = std::make_shared<halo_mailboxes>();
      for (auto& [step, value] : left) mail->from_left.put(step, value);
      for (auto& [step, value] : right) mail->from_right.put(step, value);
    }
  }
};

// What creating a partition hands back to the driver: its GID and the
// confirm hook that poisons its mailboxes. The driver removes every hook
// at the end of the solve, including those whose host died.
struct made_partition {
  agas::gid g;
  std::uint64_t hook = 0;

  template <typename Archive>
  void serialize(Archive& ar) {
    ar& g& hook;
  }
};

// The locality's checkpoint store, bound lazily (registration-race safe:
// buddy puts and local puts can arrive concurrently).
constexpr char const ckpt_name[] = "px.stencil.heat1d.ckpt";

std::shared_ptr<resilience::checkpoint_store> ckpt_store(
    px::dist::locality& here) {
  auto g = here.agas().resolve_name(ckpt_name);
  if (!g.valid()) {
    auto store = std::make_shared<resilience::checkpoint_store>();
    auto bound = here.agas().bind(store);
    if (here.agas().register_name(ckpt_name, bound)) return store;
    here.agas().unbind(bound);
    g = here.agas().resolve_name(ckpt_name);
  }
  auto store = here.agas().resolve<resilience::checkpoint_store>(g);
  PX_ASSERT(store != nullptr);
  return store;
}

// Optimization sink for the synthetic compute load.
volatile double heat_burn_sink = 0.0;

// ---- actions ------------------------------------------------------------

made_partition heat_make_partition(px::dist::locality& here,
                                   heat_partition init) {
  auto part = std::make_shared<heat_partition>(std::move(init));
  made_partition made;
  made.g = here.agas().bind(part);
  // Any confirmed locality death aborts the whole attempt: the victim's
  // round task must stop blocking on halos that cannot arrive, and the
  // survivors' round tasks must abort (their fields are about to be rolled
  // back) instead of waiting on the victim's halos. Poisoning this
  // partition's mailboxes covers both — whichever side it is on.
  made.hook = here.domain().add_confirm_hook(
      [weak = std::weak_ptr<halo_mailboxes>(part->mail)](std::uint32_t victim) {
        if (auto mail = weak.lock()) {
          auto reason =
              std::make_exception_ptr(px::dist::locality_down(victim));
          mail->from_left.poison(reason);
          mail->from_right.poison(reason);
        }
      });
  return made;
}

// A direct action: runs on the thread that delivers the halo, so it only
// looks the partition up and puts, never waits.
void heat_halo_put(px::dist::locality& here, agas::gid g, std::uint64_t step,
                   std::uint8_t from_side_left, double value) {
  auto part = here.agas().resolve<heat_partition>(g);
  if (part == nullptr) return;  // destroyed: a stale halo, drop it
  // from_side_left == 1: the sender is our left neighbour.
  if (from_side_left != 0)
    part->mail->from_left.put(step, value);
  else
    part->mail->from_right.put(step, value);
}

int heat_ckpt_put(px::dist::locality& here, std::uint64_t partition,
                  std::uint64_t step, std::vector<double> slab) {
  ckpt_store(here)->put(partition, step, serial::to_bytes(slab));
  return 0;
}

std::vector<double> heat_ckpt_fetch(px::dist::locality& here,
                                    std::uint64_t partition,
                                    std::uint64_t step) {
  auto blob = ckpt_store(here)->get(partition, step);
  if (!blob.has_value())
    throw std::runtime_error("heat1d: no checkpoint for partition " +
                             std::to_string(partition) + " at step " +
                             std::to_string(step));
  counters::builtin().resilience_restores.add();
  return serial::from_bytes<std::vector<double>>(*blob);
}

// Flattened [object, version, object, version, ...] of this locality's
// store — the recovery driver intersects these across survivors to find
// the newest step every partition can roll back to.
std::vector<std::uint64_t> heat_ckpt_report(px::dist::locality& here) {
  auto const entries = ckpt_store(here)->entries();
  std::vector<std::uint64_t> out;
  out.reserve(entries.size() * 2);
  for (auto const& e : entries) {
    out.push_back(e.object);
    out.push_back(e.version);
  }
  return out;
}

// Advances one partition through steps [t0, t1). Runs wherever the
// component lives; the neighbour GIDs route through the residence cache and
// tombstone chain, so a neighbour's location never matters here.
void heat_round(px::dist::locality& here, agas::gid g, std::uint64_t t0,
                std::uint64_t t1, agas::gid left, agas::gid right) {
  auto self = here.agas().resolve<heat_partition>(g);
  if (self == nullptr)
    throw std::runtime_error("heat_round: partition not resident");
  std::size_t const n = self->slab.size();
  PX_ASSERT(n >= 2);
  double const k = self->k;
  halo_mailboxes& mail = *self->mail;
  auto& faults = here.domain().fabric().faults();
  buffer next(n, 0.0);

  for (std::uint64_t t = t0; t < t1; ++t) {
    // Scheduled fail-stop triggers are keyed on application progress.
    faults.advance_step(t);
    buffer const& curr = self->slab;

    // 0. Checkpoint the pre-step field: (p, t) restores to "about to
    //    compute step t". Saved locally and into the buddy locality so one
    //    locality's death loses no partition. The buddy write is
    //    synchronous — a checkpoint that might not have landed cannot be
    //    counted on — but a buddy that died mid-write is survivable:
    //    recovery just rolls back to an older step that is fully covered.
    if (self->checkpoint_interval != 0 && t > t0 &&
        t % self->checkpoint_interval == 0) {
      // Split-brain fence: a fenced (minority-partition) host must not
      // commit checkpoints — the majority may be rolling this partition
      // back or rehoming it, and a minority-side checkpoint could later be
      // restored over the agreed state. Skipping is safe (recovery rolls
      // back to an older fully-covered step) and the refusal is counted so
      // tests can pin the gate.
      if (here.domain().is_fenced(here.id())) {
        (void)here.domain().membership().refusal(here.id());
      } else {
        std::vector<double> slab(curr.begin(), curr.end());
        ckpt_store(here)->put(self->partition, t, serial::to_bytes(slab));
        if (self->buddy != here.id()) {
          try {
            here.call<&heat_ckpt_put>(self->buddy, self->partition, t,
                                      std::move(slab))
                .get();
          } catch (...) {
            // Buddy unreachable (dying or dead); the local copy stands.
          }
        }
      }
    }

    // 1. Ship edges first so the transfer overlaps the interior update.
    if (left.valid())
      here.apply_component<&heat_halo_put>(left, t, std::uint8_t{0},
                                           curr.front());
    if (right.valid())
      here.apply_component<&heat_halo_put>(right, t, std::uint8_t{1},
                                           curr.back());
    // Step boundary: push the halo parcels onto the wire before the
    // interior compute, so neighbours receive them while we work instead
    // of after a coalescing deadline.
    here.domain().flush_coalescing();

    // 2. Interior: cells [1, n-1) need no remote data.
    parallel::for_loop(execution::par, 1, n - 1, [&](std::size_t x) {
      next[x] = heat_update(curr[x - 1], curr[x], curr[x + 1], k);
    });
    if (self->compute_cost != 0) {
      // Synthetic per-cell work, discarded: scales the step's compute
      // with slab size so load imbalance is real, without touching the
      // field (bitwise determinism is part of the contract).
      double burn = 0.0;
      for (std::uint32_t r = 0; r < self->compute_cost; ++r)
        for (std::size_t x = 1; x + 1 < n; ++x)
          burn += heat_update(curr[x - 1], curr[x], curr[x + 1], k * 0.5);
      heat_burn_sink = burn;
    }

    // 3. Edges: remote halo (suspends until the parcel lands — or throws
    //    locality_down when a confirmed failure poisoned the mailbox) or
    //    global Dirichlet boundary.
    next[0] = left.valid()
                  ? heat_update(mail.from_left.get(t), curr[0], curr[1], k)
                  : curr[0];
    next[n - 1] = right.valid() ? heat_update(curr[n - 2], curr[n - 1],
                                              mail.from_right.get(t), k)
                                : curr[n - 1];
    std::swap(self->slab, next);
  }
}

// Unbinds the partition and hands back its slab. The last solve wave:
// gathering the field and tearing down are one round trip.
buffer heat_destroy_partition(px::dist::locality& here, agas::gid g,
                              bool clear_checkpoints) {
  auto part = here.agas().resolve<heat_partition>(g);
  if (part == nullptr)
    throw std::runtime_error("heat_destroy_partition: partition not resident");
  here.agas().unbind(g);
  if (clear_checkpoints) ckpt_store(here)->clear();
  return std::move(part->slab);
}

// Runs at the partition's current home: the departure half of migrate()
// must execute where the object is pinned.
agas::gid heat_part_migrate(px::dist::locality& here, agas::gid g,
                            std::uint32_t dest) {
  return px::dist::migrate<heat_partition>(here, g, dest).get();
}

}  // namespace

PX_REGISTER_ACTION(heat_make_partition)
PX_REGISTER_DIRECT_ACTION(heat_halo_put)
PX_REGISTER_ACTION(heat_ckpt_put)
PX_REGISTER_ACTION(heat_ckpt_fetch)
PX_REGISTER_ACTION(heat_ckpt_report)
PX_REGISTER_ACTION(heat_round)
PX_REGISTER_ACTION(heat_destroy_partition)
PX_REGISTER_ACTION(heat_part_migrate)
PX_REGISTER_MIGRATABLE(heat_partition)

std::vector<std::size_t> zipf_partition_sizes(std::size_t nx_total,
                                              std::size_t parts, double s) {
  PX_ASSERT(parts >= 1 && nx_total >= 2 * parts);
  std::vector<double> w(parts);
  double total = 0.0;
  for (std::size_t p = 0; p < parts; ++p) {
    w[p] = 1.0 / std::pow(static_cast<double>(p + 1), s);
    total += w[p];
  }
  std::vector<std::size_t> sizes(parts);
  std::size_t assigned = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    auto cells = static_cast<std::size_t>(
        std::floor(static_cast<double>(nx_total) * w[p] / total));
    sizes[p] = std::max<std::size_t>(cells, 2);
    assigned += sizes[p];
  }
  // Settle the rounding residue on the largest partition (deterministic;
  // sizes stay ≥ 2 because over-assignment is at most parts * 2 cells and
  // partition 0 holds the zipf head).
  while (assigned > nx_total) {
    std::size_t big = 0;
    for (std::size_t p = 1; p < parts; ++p)
      if (sizes[p] > sizes[big]) big = p;
    PX_ASSERT(sizes[big] > 2);
    --sizes[big];
    --assigned;
  }
  if (assigned < nx_total) sizes[0] += nx_total - assigned;
  return sizes;
}

dist_heat_result run_distributed_heat1d(px::dist::distributed_domain& dom,
                                        std::vector<double> const& initial,
                                        dist_heat_config cfg) {
  bool const rebalancing = cfg.rebalance_cfg.enabled;
  if (rebalancing && cfg.checkpoint_interval != 0)
    throw std::invalid_argument(
        "run_distributed_heat1d: checkpointing and rebalancing cannot be "
        "combined");
  cfg.nx_total = initial.size();
  std::size_t const nloc = dom.size();
  std::size_t const nparts = cfg.partitions != 0 ? cfg.partitions : nloc;
  auto const sizes = zipf_partition_sizes(cfg.nx_total, nparts, cfg.zipf_s);
  std::uint64_t const round_steps =
      rebalancing ? std::max<std::uint64_t>(cfg.steps_per_round, 1)
                  : std::max<std::uint64_t>(cfg.steps, 1);

  std::uint64_t const messages_before =
      dom.fabric().counters().messages.load();
  // Every confirm hook the solve registered, removed on every exit path —
  // including hooks whose partition's host died.
  std::vector<std::uint64_t> hooks;
  auto remove_hooks = [&] {
    for (std::uint64_t id : hooks) dom.remove_confirm_hook(id);
  };

  dist_heat_result result;
  try {
    result = dom.run([&](px::dist::locality& loc0) -> dist_heat_result {
      dist_heat_result res;
      high_resolution_timer timer;

      // Placement: p on locality p % nloc until a failure remaps it.
      // Combined with a zipf split this stacks the heaviest slabs on the
      // low localities — the imbalance the rebalancer exists to fix.
      std::vector<std::uint32_t> part_loc(nparts);
      std::vector<std::size_t> offset(nparts + 1, 0);
      for (std::size_t p = 0; p < nparts; ++p) {
        part_loc[p] = static_cast<std::uint32_t>(p % nloc);
        offset[p + 1] = offset[p] + sizes[p];
      }
      auto initial_slab = [&](std::size_t p) {
        return buffer(initial.begin() + static_cast<std::ptrdiff_t>(offset[p]),
                      initial.begin() +
                          static_cast<std::ptrdiff_t>(offset[p + 1]));
      };
      std::vector<buffer> slabs(nparts);
      for (std::size_t p = 0; p < nparts; ++p) slabs[p] = initial_slab(p);

      agas::rebalancer reb(dom, cfg.rebalance_cfg,
                           [&loc0](agas::gid g, std::uint32_t from,
                                   std::uint32_t to) {
                             return loc0.call<&heat_part_migrate>(from, g,
                                                                  to);
                           });
      std::vector<agas::gid> gids(nparts);
      std::uint64_t t0 = 0;

      for (;;) {
        try {
          // Wave 1: create this attempt's components, slabs included.
          {
            std::vector<future<made_partition>> made;
            made.reserve(nparts);
            for (std::size_t p = 0; p < nparts; ++p) {
              heat_partition part;
              part.partition = p;
              part.k = cfg.k;
              part.compute_cost = cfg.compute_cost;
              part.checkpoint_interval = cfg.checkpoint_interval;
              part.buddy = part_loc[(p + 1) % nparts];
              part.slab = std::move(slabs[p]);
              made.push_back(loc0.call<&heat_make_partition>(part_loc[p],
                                                             std::move(part)));
            }
            std::exception_ptr failure;
            for (std::size_t p = 0; p < nparts; ++p) {
              try {
                auto const m = made[p].get();
                gids[p] = m.g;
                hooks.push_back(m.hook);
              } catch (...) {
                gids[p] = agas::invalid_gid;
                if (failure == nullptr) failure = std::current_exception();
              }
            }
            if (failure != nullptr) std::rethrow_exception(failure);
          }
          for (std::size_t p = 0; p < nparts; ++p)
            reb.add_partition(p, gids[p], part_loc[p],
                              static_cast<double>(sizes[p]));
          if (res.recoveries == 0)
            res.imbalance_initial = agas::load_imbalance(reb.loads());

          // Wave 2 (one per round): solve [t0, steps) to a barrier per
          // round, then let the rebalancer take one pass. The driver keeps
          // using the creation-time GIDs throughout — residence staleness
          // is the AGAS layer's problem.
          res.rounds = 0;
          res.round_seconds.clear();
          for (std::uint64_t r0 = t0; r0 < cfg.steps; r0 += round_steps) {
            std::uint64_t const r1 =
                std::min<std::uint64_t>(cfg.steps, r0 + round_steps);
            high_resolution_timer round_timer;
            std::vector<future<void>> rounds;
            rounds.reserve(nparts);
            for (std::size_t p = 0; p < nparts; ++p) {
              agas::gid const left = p > 0 ? gids[p - 1] : agas::invalid_gid;
              agas::gid const right =
                  p + 1 < nparts ? gids[p + 1] : agas::invalid_gid;
              rounds.push_back(loc0.call_component<&heat_round>(
                  gids[p], r0, r1, left, right));
            }
            // Drain every round future even after the first failure: a
            // survivor's aborting task may exit (and respond) late, and
            // the replay must not race it.
            std::exception_ptr failure;
            for (auto& f : rounds) {
              try {
                f.get();
              } catch (...) {
                if (failure == nullptr) failure = std::current_exception();
              }
            }
            if (failure != nullptr) std::rethrow_exception(failure);
            res.round_seconds.push_back(round_timer.elapsed());
            res.rounds += 1;
            if (r1 < cfg.steps) reb.step();
          }
          break;
        } catch (...) {
          auto const dead = dom.confirmed_dead();
          if (dead.empty()) throw;  // not a locality failure — propagate
          for (std::uint32_t d : dead)
            if (d == 0) throw;  // the console died; nobody left to recover
          if (res.recoveries >= cfg.max_recoveries) throw;
          res.recoveries += 1;

          // Retire the aborted attempt's surviving components. The next
          // attempt gets fresh ones, so nothing of this attempt is reused.
          for (std::size_t p = 0; p < nparts; ++p)
            if (gids[p].valid() && !dom.is_confirmed_dead(part_loc[p]))
              loc0.apply_component<&heat_destroy_partition>(gids[p], false);

          // Remap partitions off the dead localities (round-robin to the
          // next survivor; locality 0 is alive, so this terminates).
          for (std::size_t p = 0; p < nparts; ++p) {
            std::uint32_t h = part_loc[p];
            while (dom.is_confirmed_dead(h))
              h = static_cast<std::uint32_t>((h + 1) % nloc);
            part_loc[p] = h;
          }

          // Find the newest step C every partition can restore from a
          // *surviving* store (the dead locality's store is lost with it).
          // Step 0 always qualifies: the driver still holds the initial
          // condition.
          std::vector<std::vector<std::uint32_t>> holders_of(nparts);
          std::vector<std::vector<std::uint64_t>> steps_of(nparts);
          for (std::uint32_t l = 0; l < nloc; ++l) {
            if (dom.is_confirmed_dead(l)) continue;
            auto const report = loc0.call<&heat_ckpt_report>(l).get();
            for (std::size_t i = 0; i + 1 < report.size(); i += 2) {
              std::uint64_t const p = report[i];
              if (p >= nparts) continue;
              holders_of[p].push_back(l);
              steps_of[p].push_back(report[i + 1]);
            }
          }
          std::uint64_t C = 0;
          if (cfg.checkpoint_interval != 0) {
            for (std::uint64_t cand =
                     (cfg.steps / cfg.checkpoint_interval) *
                     cfg.checkpoint_interval;
                 cand != 0; cand -= cfg.checkpoint_interval) {
              bool all = true;
              for (std::size_t p = 0; p < nparts && all; ++p) {
                bool found = false;
                for (std::uint64_t s : steps_of[p])
                  if (s == cand) found = true;
                all = found;
              }
              if (all) {
                C = cand;
                break;
              }
            }
          }

          // Restore every partition's slab at step C and replay from
          // there. Rolling *all* partitions back (not just the lost ones)
          // keeps the stencil globally consistent: step C's halo exchange
          // happens afresh for everyone.
          for (std::size_t p = 0; p < nparts; ++p) {
            if (C == 0) {
              slabs[p] = initial_slab(p);
              continue;
            }
            std::uint32_t holder = 0;
            bool found = false;
            for (std::size_t i = 0; i < steps_of[p].size(); ++i) {
              if (steps_of[p][i] == C) {
                holder = holders_of[p][i];
                found = true;
                break;
              }
            }
            PX_ASSERT_MSG(found, "checkpoint cover computed but not found");
            auto const slab = loc0.call<&heat_ckpt_fetch>(holder, p, C).get();
            slabs[p].assign(slab.begin(), slab.end());
          }
          t0 = C;
        }
      }
      res.migrations = reb.total_moves();
      res.imbalance_final = agas::load_imbalance(reb.loads());
      res.seconds = timer.elapsed();

      // Wave 3: gather the field and destroy the components (and, after a
      // checkpointed solve, clear the checkpoint stores they used).
      std::vector<future<buffer>> finals;
      finals.reserve(nparts);
      for (std::size_t p = 0; p < nparts; ++p)
        finals.push_back(loc0.call_component<&heat_destroy_partition>(
            gids[p], cfg.checkpoint_interval != 0));
      res.values.reserve(cfg.nx_total);
      for (auto& f : finals) {
        auto const slab = f.get();
        res.values.insert(res.values.end(), slab.begin(), slab.end());
      }
      return res;
    });
  } catch (...) {
    remove_hooks();
    throw;
  }
  remove_hooks();

  result.points_per_second =
      result.seconds > 0.0
          ? static_cast<double>(cfg.nx_total) *
                static_cast<double>(cfg.steps) / result.seconds
          : 0.0;
  result.halo_messages =
      dom.fabric().counters().messages.load() - messages_before;
  return result;
}

}  // namespace px::stencil

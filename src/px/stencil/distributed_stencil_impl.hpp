// px/stencil/distributed_stencil_impl.hpp — the partition component and
// driver behind the distributed stencil solvers (distributed_stencil.hpp),
// written once as templates over a shape. Each solver's TU instantiates
// them for its shape, defines its entry point and registers the actions it
// uses, so a static link that keeps an entry point keeps them. The solvers
// keep separate TUs: in one shared with the 2D instances, GCC's per-unit
// inlining budget ran out before heat's halo handler and a 200-step heat
// solve ran about 7% slower (gcc 12, 4-vCPU x86 host).
#pragma once

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "px/dist/migration.hpp"
#include "px/resilience/checkpoint.hpp"
#include "px/stencil/distributed_stencil.hpp"
#include "px/stencil/step_mailbox.hpp"
#include "px/support/timer.hpp"

namespace px::stencil::detail {

// A shape is a partition's solver state: the cells of its share of the
// field (`cells`) and the kernel's constants, serializable so the
// partition can migrate. `halo` is what a neighbour sends each step, and
// `min_units` the fewest split units (`unit()` doubles each) a partition
// may hold. Its `stepper` is one round's scratch: per step the driver
// sends low_halo()/high_halo(), runs interior(), then low_edge() and
// high_edge(), each as soon as its halo is in (null at a global boundary);
// high_edge() completes the step. snapshot() is the current field as a
// checkpoint stores it, and finish() leaves the round's result in
// `cells`.

// ---- the partition component --------------------------------------------

// Mailboxes live behind a shared_ptr so the component stays movable (the
// migration layer materializes arrivals by move) and so the confirm hook
// can poison them through a weak reference.
template <typename Halo>
struct mailboxes {
  step_mailbox<Halo> from_low;   // from the left (1D) or upper (2D) partition
  step_mailbox<Halo> from_high;  // from the right (1D) or lower (2D) one
};

// One partition, addressed only by GID. The rebalancer may move it between
// rounds; a recovery attempt replaces it with a fresh component. GIDs are
// never reused, so a halo still in flight from an aborted attempt lands on
// an unbound GID and is dropped — it can never leak into the replay.
template <typename Shape>
struct partition {
  using mail_t = mailboxes<typename Shape::halo>;

  std::uint64_t index = 0;  // the checkpoint key
  std::uint64_t checkpoint_interval = 0;
  std::uint32_t buddy = 0;  // locality holding the checkpoint replica
  Shape shape;
  std::shared_ptr<mail_t> mail = std::make_shared<mail_t>();

  template <typename Archive>
  void serialize(Archive& ar) {
    ar& index& checkpoint_interval& buddy& shape;
    // Halos buffered but not yet consumed travel with the object: the
    // round barrier guarantees the mailboxes are empty between rounds,
    // but a put racing the pin (parked, re-delivered, landed just before
    // departure) must not be dropped on the floor.
    if constexpr (Archive::is_saving) {
      auto low = mail->from_low.drain_pending();
      auto high = mail->from_high.drain_pending();
      ar& low& high;
    } else {
      std::vector<std::pair<std::uint64_t, typename Shape::halo>> low, high;
      ar& low& high;
      mail = std::make_shared<mail_t>();
      for (auto& [step, value] : low)
        mail->from_low.put(step, std::move(value));
      for (auto& [step, value] : high)
        mail->from_high.put(step, std::move(value));
    }
  }
};

// ---- checkpoint actions and the split, shared by every shape -------------

// The locality's checkpoint store, bound lazily (registration-race safe:
// buddy puts and local puts can arrive concurrently).
inline std::shared_ptr<resilience::checkpoint_store> ckpt_store(
    px::dist::locality& here) {
  constexpr char const ckpt_name[] = "px.stencil.ckpt";
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

inline int ckpt_put(px::dist::locality& here, std::uint64_t index,
                    std::uint64_t step, std::vector<double> cells) {
  ckpt_store(here)->put(index, step, serial::to_bytes(cells));
  return 0;
}

inline std::vector<double> ckpt_fetch(px::dist::locality& here,
                                      std::uint64_t index,
                                      std::uint64_t step) {
  auto blob = ckpt_store(here)->get(index, step);
  if (!blob.has_value())
    throw std::runtime_error("px::stencil: no checkpoint for partition " +
                             std::to_string(index) + " at step " +
                             std::to_string(step));
  counters::builtin().resilience_restores.add();
  return serial::from_bytes<std::vector<double>>(*blob);
}

// This locality's stored (partition, step) checkpoints — the recovery
// driver intersects these across survivors to find the newest step every
// partition can roll back to.
inline std::vector<std::pair<std::uint64_t, std::uint64_t>> ckpt_report(
    px::dist::locality& here) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (auto const& e : ckpt_store(here)->entries())
    out.emplace_back(e.object, e.version);
  return out;
}

// sizes[p] ∝ 1/(p+1)^s, each at least min_size, summing to n.
inline std::vector<std::size_t> zipf_split(std::size_t n, std::size_t parts,
                                           double s,
                                           std::size_t min_size) {
  PX_ASSERT(parts >= 1 && n >= min_size * parts);
  std::vector<double> w(parts);
  double total = 0.0;
  for (std::size_t p = 0; p < parts; ++p) {
    w[p] = 1.0 / std::pow(static_cast<double>(p + 1), s);
    total += w[p];
  }
  std::vector<std::size_t> sizes(parts);
  std::size_t assigned = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    auto units = static_cast<std::size_t>(
        std::floor(static_cast<double>(n) * w[p] / total));
    sizes[p] = std::max(units, min_size);
    assigned += sizes[p];
  }
  // Settle the rounding residue on the largest partition (deterministic;
  // sizes stay ≥ min_size because over-assignment is at most
  // parts * min_size and partition 0 holds the zipf head).
  while (assigned > n) {
    std::size_t big = 0;
    for (std::size_t p = 1; p < parts; ++p)
      if (sizes[p] > sizes[big]) big = p;
    PX_ASSERT(sizes[big] > min_size);
    --sizes[big];
    --assigned;
  }
  if (assigned < n) sizes[0] += n - assigned;
  return sizes;
}

// ---- per-shape actions ----------------------------------------------------

// Binds a partition and hands back its GID and the confirm hook that
// poisons its mailboxes. The driver removes every hook at the end of the
// solve, including those whose host died.
template <typename Shape>
std::pair<agas::gid, std::uint64_t> make_partition(px::dist::locality& here,
                                                   partition<Shape> init) {
  auto part = std::make_shared<partition<Shape>>(std::move(init));
  agas::gid const g = here.agas().bind(part);
  // Any confirmed locality death aborts the whole attempt: the victim's
  // round task must stop blocking on halos that cannot arrive, and the
  // survivors' round tasks must abort (their fields are about to be rolled
  // back) instead of waiting on the victim's halos. Poisoning this
  // partition's mailboxes covers both — whichever side it is on.
  auto const hook = here.domain().add_confirm_hook(
      [weak = std::weak_ptr(part->mail)](std::uint32_t victim) {
        if (auto mail = weak.lock()) {
          auto reason =
              std::make_exception_ptr(px::dist::locality_down(victim));
          mail->from_low.poison(reason);
          mail->from_high.poison(reason);
        }
      });
  return {g, hook};
}

// A direct action: runs on the thread that delivers the halo, so it only
// looks the partition up and puts, never waits.
template <typename Shape>
void halo_put(px::dist::locality& here, agas::gid g, std::uint64_t step,
              std::uint8_t from_low, typename Shape::halo value) {
  auto part = here.agas().resolve<partition<Shape>>(g);
  if (part == nullptr) return;  // destroyed: a stale halo, drop it
  if (from_low != 0)
    part->mail->from_low.put(step, std::move(value));
  else
    part->mail->from_high.put(step, std::move(value));
}

// Advances one partition through steps [t0, t1). Runs wherever the
// component lives; the neighbour GIDs route through the residence cache and
// tombstone chain, so a neighbour's location never matters here.
template <typename Shape>
void solve_round(px::dist::locality& here, agas::gid g, std::uint64_t t0,
                 std::uint64_t t1, agas::gid low, agas::gid high) {
  auto self = here.agas().resolve<partition<Shape>>(g);
  if (self == nullptr)
    throw std::runtime_error("px::stencil solve_round: partition not resident");
  auto& mail = *self->mail;
  auto& faults = here.domain().fabric().faults();
  typename Shape::stepper step(self->shape);

  for (std::uint64_t t = t0; t < t1; ++t) {
    // Scheduled fail-stop triggers are keyed on application progress.
    faults.advance_step(t);

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
        std::vector<double> cells = step.snapshot();
        ckpt_store(here)->put(self->index, t, serial::to_bytes(cells));
        if (self->buddy != here.id()) {
          try {
            here.call<&ckpt_put>(self->buddy, self->index, t,
                                 std::move(cells))
                .get();
          } catch (...) {
            // Buddy unreachable (dying or dead); the local copy stands.
          }
        }
      }
    }

    // 1. Ship edges first so the transfer overlaps the interior update.
    if (low.valid())
      here.apply_component<&halo_put<Shape>>(low, t, std::uint8_t{0},
                                             step.low_halo());
    if (high.valid())
      here.apply_component<&halo_put<Shape>>(high, t, std::uint8_t{1},
                                             step.high_halo());
    // Step boundary: push the halo parcels onto the wire before the
    // interior compute, so neighbours receive them while we work instead
    // of after a coalescing deadline.
    here.domain().flush_coalescing();

    // 2. Interior: needs no remote data.
    step.interior();

    // 3. Edges: remote halos (suspends until the parcel lands — or throws
    //    locality_down when a confirmed failure poisoned the mailbox) or
    //    the global Dirichlet boundary.
    typename Shape::halo halo{};
    if (low.valid()) halo = mail.from_low.get(t);
    step.low_edge(low.valid() ? &halo : nullptr);
    if (high.valid()) halo = mail.from_high.get(t);
    step.high_edge(high.valid() ? &halo : nullptr);
  }
  step.finish();
}

// Unbinds the partition and hands back its cells. The last solve wave:
// gathering the field and tearing down are one round trip.
template <typename Shape>
decltype(Shape::cells) destroy_partition(px::dist::locality& here,
                                         agas::gid g,
                                         bool clear_checkpoints) {
  auto part = here.agas().resolve<partition<Shape>>(g);
  if (part == nullptr)
    throw std::runtime_error("px::stencil destroy: partition not resident");
  here.agas().unbind(g);
  if (clear_checkpoints) ckpt_store(here)->clear();
  return std::move(part->shape.cells);
}

// Runs at the partition's current home: the departure half of migrate()
// must execute where the object is pinned.
template <typename Shape>
agas::gid part_migrate(px::dist::locality& here, agas::gid g,
                       std::uint32_t dest) {
  return px::dist::migrate<partition<Shape>>(here, g, dest).get();
}

// ---- the driver ---------------------------------------------------------

// Solves `initial` on partitions shaped like `proto` (its constants, no
// cells) and fills the shared half of the result.
template <typename Shape>
void run_partitioned(px::dist::distributed_domain& dom,
                     std::vector<double> const& initial,
                     dist_stencil_config const& cfg, Shape const& proto,
                     dist_stencil_result& out) {
  using cells_t = decltype(Shape::cells);
  bool const rebalancing = cfg.rebalance_cfg.enabled;
  if (rebalancing && cfg.checkpoint_interval != 0)
    throw std::invalid_argument(
        "px::stencil: checkpointing and rebalancing cannot be combined");
  std::size_t const unit = proto.unit();
  PX_ASSERT(unit != 0 && initial.size() % unit == 0);
  std::size_t const nloc = dom.size();
  std::size_t const nparts = cfg.partitions != 0 ? cfg.partitions : nloc;
  auto const sizes =
      zipf_split(initial.size() / unit, nparts, cfg.zipf_s, Shape::min_units);
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

  try {
    out = dom.run([&](px::dist::locality& loc0) -> dist_stencil_result {
      dist_stencil_result res;
      high_resolution_timer timer;

      // Placement: p on locality p % nloc until a failure remaps it.
      // Combined with a zipf split this stacks the heaviest partitions on
      // the low localities — the imbalance the rebalancer exists to fix.
      std::vector<std::uint32_t> part_loc(nparts);
      std::vector<std::size_t> offset(nparts + 1, 0);
      for (std::size_t p = 0; p < nparts; ++p) {
        part_loc[p] = static_cast<std::uint32_t>(p % nloc);
        offset[p + 1] = offset[p] + sizes[p] * unit;
      }
      auto initial_cells = [&](std::size_t p) {
        return cells_t(initial.begin() + static_cast<std::ptrdiff_t>(offset[p]),
                       initial.begin() +
                           static_cast<std::ptrdiff_t>(offset[p + 1]));
      };
      std::vector<cells_t> cells(nparts);
      for (std::size_t p = 0; p < nparts; ++p) cells[p] = initial_cells(p);

      agas::rebalancer reb(dom, cfg.rebalance_cfg,
                           [&loc0](agas::gid g, std::uint32_t from,
                                   std::uint32_t to) {
                             return loc0.call<&part_migrate<Shape>>(from, g,
                                                                    to);
                           });
      std::vector<agas::gid> gids(nparts);
      std::uint64_t t0 = 0;

      for (;;) {
        try {
          // Wave 1: create this attempt's components, cells included.
          {
            std::vector<future<std::pair<agas::gid, std::uint64_t>>> made;
            made.reserve(nparts);
            for (std::size_t p = 0; p < nparts; ++p) {
              partition<Shape> part;
              part.index = p;
              part.checkpoint_interval = cfg.checkpoint_interval;
              part.buddy = part_loc[(p + 1) % nparts];
              part.shape = proto;
              part.shape.cells = std::move(cells[p]);
              made.push_back(loc0.call<&make_partition<Shape>>(
                  part_loc[p], std::move(part)));
            }
            std::exception_ptr failure;
            for (std::size_t p = 0; p < nparts; ++p) {
              try {
                auto const [g, hook] = made[p].get();
                gids[p] = g;
                hooks.push_back(hook);
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
          for (std::uint64_t r0 = t0; r0 < cfg.steps; r0 += round_steps) {
            std::uint64_t const r1 =
                std::min<std::uint64_t>(cfg.steps, r0 + round_steps);
            std::vector<future<void>> rounds;
            rounds.reserve(nparts);
            for (std::size_t p = 0; p < nparts; ++p) {
              agas::gid const low = p > 0 ? gids[p - 1] : agas::invalid_gid;
              agas::gid const high =
                  p + 1 < nparts ? gids[p + 1] : agas::invalid_gid;
              rounds.push_back(loc0.call_component<&solve_round<Shape>>(
                  gids[p], r0, r1, low, high));
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
              loc0.apply_component<&destroy_partition<Shape>>(gids[p], false);

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
          std::vector<std::map<std::uint64_t, std::uint32_t>> holder(nparts);
          for (std::uint32_t l = 0; l < nloc; ++l) {
            if (dom.is_confirmed_dead(l)) continue;
            for (auto const& [p, step] : loc0.call<&ckpt_report>(l).get())
              if (p < nparts) holder[p].emplace(step, l);
          }
          std::uint64_t C = 0;
          std::uint64_t const K = cfg.checkpoint_interval;
          for (std::uint64_t cand = K != 0 ? cfg.steps / K * K : 0;
               cand != 0 && C == 0; cand -= K)
            if (std::all_of(holder.begin(), holder.end(),
                            [cand](auto const& h) { return h.contains(cand); }))
              C = cand;

          // Restore every partition's cells at step C and replay from
          // there. Rolling *all* partitions back (not just the lost ones)
          // keeps the stencil globally consistent: step C's halo exchange
          // happens afresh for everyone.
          for (std::size_t p = 0; p < nparts; ++p) {
            if (C == 0) {
              cells[p] = initial_cells(p);
              continue;
            }
            auto const saved =
                loc0.call<&ckpt_fetch>(holder[p].at(C), p, C).get();
            cells[p].assign(saved.begin(), saved.end());
          }
          t0 = C;
        }
      }
      res.migrations = reb.total_moves();
      res.imbalance_final = agas::load_imbalance(reb.loads());
      res.seconds = timer.elapsed();

      // Wave 3: gather the field and destroy the components (and, after a
      // checkpointed solve, clear the checkpoint stores they used).
      std::vector<future<cells_t>> finals;
      finals.reserve(nparts);
      for (std::size_t p = 0; p < nparts; ++p)
        finals.push_back(loc0.call_component<&destroy_partition<Shape>>(
            gids[p], cfg.checkpoint_interval != 0));
      res.values.reserve(initial.size());
      for (auto& f : finals) {
        auto const part_cells = f.get();
        res.values.insert(res.values.end(), part_cells.begin(),
                          part_cells.end());
      }
      return res;
    });
  } catch (...) {
    remove_hooks();
    throw;
  }
  remove_hooks();
  out.halo_messages =
      dom.fabric().counters().messages.load() - messages_before;
}

}  // namespace px::stencil::detail

// A shape's actions, under tags unique in the process. Use once per shape,
// at namespace scope in px::stencil, in the TU that defines the shape's
// entry point.
#define PX_STENCIL_REGISTER_SHAPE(S, tag)                                   \
  PX_REGISTER_ACTION_AS(detail::make_partition<S>, px_stencil_make_##tag)   \
  PX_REGISTER_DIRECT_ACTION_AS(detail::halo_put<S>,                         \
                               px_stencil_halo_put_##tag)                   \
  PX_REGISTER_ACTION_AS(detail::solve_round<S>, px_stencil_round_##tag)     \
  PX_REGISTER_ACTION_AS(detail::destroy_partition<S>,                       \
                        px_stencil_destroy_##tag)                           \
  PX_REGISTER_ACTION_AS(detail::part_migrate<S>, px_stencil_migrate_##tag)  \
  PX_REGISTER_MIGRATABLE_AS(detail::partition<S>, px_stencil_partition_##tag)

// The checkpoint actions, once per solver TU (the registry returns the
// same id for a name registered again).
#define PX_STENCIL_REGISTER_CHECKPOINTS()                                 \
  PX_REGISTER_ACTION_AS(detail::ckpt_put, px_stencil_ckpt_put)            \
  PX_REGISTER_ACTION_AS(detail::ckpt_fetch, px_stencil_ckpt_fetch)        \
  PX_REGISTER_ACTION_AS(detail::ckpt_report, px_stencil_ckpt_report)

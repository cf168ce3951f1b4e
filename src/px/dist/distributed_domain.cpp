#include "px/dist/distributed_domain.hpp"

#include <chrono>
#include <thread>
#include <unordered_map>
#include <vector>

#include "px/counters/counters.hpp"
#include "px/runtime/timer_service.hpp"
#include "px/support/assert.hpp"
#include "px/torture/torture.hpp"

namespace px::dist {

// ---- locality ---------------------------------------------------------

locality::locality(distributed_domain& domain, std::uint32_t id,
                   scheduler_config cfg)
    : domain_(domain),
      id_(id),
      rt_([&] {
        cfg.name = "loc" + std::to_string(id);
        return cfg;
      }()),
      agas_(id) {}

void locality::send(parcel::parcel p) {
  PX_ASSERT(p.source == id_);
  counters::builtin().parcel_messages_sent.add();
  counters::builtin().parcel_bytes_sent.add(p.wire_size());
  domain_.route(std::move(p));
}

// Caller-side residence refresh: sent by a forwarding locality (pointing at
// its tombstone's target) and by the object's home whenever a parcel
// arrives with hops > 0 (authoritative). Epoch gating on both receiver
// tables makes delivery order irrelevant; refreshing a local tombstone too
// lazily compresses forwarding chains through localities that also call.
void agas_residence_update(locality& here, agas::gid g, std::uint32_t loc,
                           std::uint64_t epoch) {
  here.residence().update(g, loc, epoch);
  here.agas().refresh_tombstone(g, loc, epoch);
}

void locality::deliver(parcel::parcel p) {
  counters::builtin().parcels_delivered.add();
  if (p.action == parcel::response_action_id) {
    response_completion completion;
    {
      std::lock_guard<spinlock> guard(pending_lock_);
      auto it = pending_.find(p.response_token);
      if (it == pending_.end()) {
        // The slot was already failed by the transport (retry budget
        // exhausted while the response was still crossing the wire). The
        // caller got a delivery_error; the late response is dropped.
        counters::builtin().parcel_orphan_responses.add();
        return;
      }
      completion = std::move(it->second.fn);
      pending_.erase(it);
    }
    completion(std::move(p), nullptr);
    parcels_handled_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Component-addressed parcels resolve their target *here*, not at the
  // caller: the object may have migrated (forward along the tombstone) or
  // be mid-departure (park until commit/abort).
  if (p.target.valid() && !component_route(p)) return;

  auto const handler = parcel::action_registry::instance().handler(p.action);
  PX_ASSERT_MSG(handler != nullptr, "parcel for unregistered action");
  // Message-driven computation: the arriving parcel becomes a task.
  sched().spawn([this, handler, p = std::move(p)]() mutable {
    handler(*this, std::move(p));
    parcels_handled_.fetch_add(1, std::memory_order_relaxed);
  });
}

bool locality::component_route(parcel::parcel& p) {
  auto const r = agas_.route_of(p.target);
  switch (r.kind) {
    case agas::route_kind::resident:
      // A parcel that needed forwards to find us proves the sender's cache
      // is stale; the authoritative update stops the chain-chasing.
      if (p.hops > 0 && p.source != id_)
        apply<&agas_residence_update>(p.source, p.target, id_, r.epoch);
      return true;
    case agas::route_kind::migrating:
      park_component_parcel(std::move(p));
      return false;
    case agas::route_kind::forward: {
      if (p.hops >= domain_.agas_max_hops()) {
        counters::builtin().net_delivery_failures.add();
        if (p.response_token != 0 && p.action != parcel::response_action_id)
          domain_.at(p.source).fail_response_slot(
              p.response_token, std::make_exception_ptr(hop_budget_exhausted(
                                    p.target, p.hops)));
        return false;
      }
      counters::builtin().agas_forwards.add();
      if (p.source != id_)
        apply<&agas_residence_update>(p.source, p.target, r.dest, r.epoch);
      else
        cache_.update(p.target, r.dest, r.epoch);
      p.hops += 1;
      p.dest = r.dest;
      p.seq = 0;  // a fresh logical parcel on the (source, new-dest) link
      domain_.route(std::move(p));
      return false;
    }
    case agas::route_kind::unknown:
      // No binding, no tombstone: deliver and let the handler report a
      // not-resident error through the normal response path.
      counters::builtin().agas_resolve_misses.add();
      return true;
  }
  return true;
}

std::uint32_t locality::component_destination(agas::gid g) {
  auto const r = agas_.route_of(g);
  // A local binding (even one pinned by an in-progress departure) routes to
  // self: a parked parcel is re-delivered on commit/abort, which is exactly
  // the during-migration semantics call_component promises.
  if (r.kind == agas::route_kind::resident ||
      r.kind == agas::route_kind::migrating)
    return id_;
  if (auto e = cache_.lookup(g)) {
    counters::builtin().agas_cache_hits.add();
    return e->loc;
  }
  counters::builtin().agas_cache_misses.add();
  // A local tombstone beats the GID's (possibly ancient) residence bits.
  if (r.kind == agas::route_kind::forward) return r.dest;
  return g.locality();
}

void locality::park_component_parcel(parcel::parcel p) {
  counters::builtin().agas_parked.add();
  agas::gid const key = p.target;
  {
    std::lock_guard<spinlock> guard(parked_lock_);
    parked_[key].push_back(std::move(p));
  }
  // Park-then-recheck: if the migration settled between route_of and our
  // insert, the commit/abort drain may have run before the parcel was
  // parked — whoever observes the settled state claims the queue, and
  // release_parked hands each parcel exactly once.
  if (agas_.route_of(key).kind != agas::route_kind::migrating)
    release_parked(key);
}

void locality::release_parked(agas::gid g) {
  std::vector<parcel::parcel> queue;
  {
    std::lock_guard<spinlock> guard(parked_lock_);
    auto it = parked_.find(g);
    if (it == parked_.end()) return;
    queue = std::move(it->second);
    parked_.erase(it);
  }
  for (auto& p : queue) deliver(std::move(p));
}

std::size_t locality::parked_count() const {
  std::lock_guard<spinlock> guard(parked_lock_);
  std::size_t n = 0;
  for (auto const& [g, q] : parked_) n += q.size();
  return n;
}

void locality::commit_component_migration(agas::gid g, std::uint32_t dest,
                                          std::uint64_t epoch) {
  if (agas_.commit_migration(g, dest, epoch)) {
    counters::builtin().agas_migrations.add();
    counters::builtin().agas_tombstones.add();
  }
  cache_.update(g, dest, epoch);
  release_parked(g);
}

void locality::abort_component_migration(agas::gid g) {
  counters::builtin().agas_migration_aborts.add();
  agas_.abort_migration(g);
  release_parked(g);
}

std::uint64_t locality::register_response_slot(
    std::uint32_t dest, response_completion completion) {
  std::lock_guard<spinlock> guard(pending_lock_);
  std::uint64_t const token = next_token_++;
  pending_.emplace(token, pending_slot{dest, std::move(completion)});
  return token;
}

void locality::fail_response_slot(std::uint64_t token,
                                  std::exception_ptr reason) {
  response_completion completion;
  {
    std::lock_guard<spinlock> guard(pending_lock_);
    auto it = pending_.find(token);
    if (it == pending_.end()) return;  // already completed or failed
    completion = std::move(it->second.fn);
    pending_.erase(it);
  }
  completion(parcel::parcel{}, std::move(reason));
}

void locality::fail_response_slots_to(std::uint32_t dest,
                                      std::exception_ptr reason) {
  std::vector<response_completion> victims;
  {
    std::lock_guard<spinlock> guard(pending_lock_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.dest == dest) {
        victims.push_back(std::move(it->second.fn));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Completions run outside the lock: they fulfil futures whose
  // continuations may issue new calls right back through this locality.
  for (auto& fn : victims) fn(parcel::parcel{}, reason);
}

void locality::fail_all_response_slots(std::exception_ptr reason) {
  std::vector<response_completion> victims;
  {
    std::lock_guard<spinlock> guard(pending_lock_);
    victims.reserve(pending_.size());
    for (auto& [token, slot] : pending_) victims.push_back(std::move(slot.fn));
    pending_.clear();
  }
  for (auto& fn : victims) fn(parcel::parcel{}, reason);
}

PX_REGISTER_ACTION(agas_residence_update)

// ---- reliability link state -------------------------------------------

namespace detail {

// Sender-side copy of an unacked parcel, kept until the ack arrives or the
// retry budget is exhausted.
struct pending_tx {
  parcel::parcel frame;
  int attempts = 1;          // transmissions so far (1 = the original send)
  double backoff_us = 0.0;   // backoff component of the currently armed RTO
  std::shared_ptr<rt::timer_token> rto;
};

// One ordered (src,dst) pair: sender-side sequencing and in-flight map,
// receiver-side dedup window. Both ends live in-process, so one struct
// serves both directions of the protocol for this link.
struct link_state {
  link_state(std::size_t dedup_capacity, std::uint64_t initial_seq)
      : next_seq(initial_seq), rx(dedup_capacity) {
    rx.start_from(initial_seq);
    last_floor = rx.floor();
  }

  px::spinlock lock;
  std::uint64_t next_seq;
  net::dedup_window rx;
  std::unordered_map<std::uint64_t, pending_tx> inflight;
  // Floor observed by the last dedup-window-soundness invariant check; the
  // floor must only ever advance (in serial order — it wraps with the
  // seqs).
  std::uint64_t last_floor = 0;
  // Highest sender incarnation accepted on this link. Frames from an older
  // incarnation are stale — their seqs belong to a dead past and must not
  // touch the dedup window (see deliver_frame); a newer incarnation resets
  // the window so the restarted sender's first seq is fresh again.
  std::uint64_t rx_epoch = 1;
};

// One ordered (src,dst) coalescing buffer. Parcels wait here (each holding
// an in-flight obligation, so quiesce sees them) until a flush policy
// fires; `deadline` is the timer token of the armed deadline flush, owned
// jointly with the timer service's one-shot claim protocol — whichever
// side claims it first wins, the other no-ops.
struct coalesce_buffer {
  px::spinlock lock;
  std::vector<parcel::parcel> pending;
  std::size_t bytes = 0;  // encoded body bytes of `pending`
  std::shared_ptr<rt::timer_token> deadline;
};

// One retransmission timer to arm against a wire frame: logical parcel
// identity plus the token route()/on_rto() pre-installed in the link's
// inflight entry. A coalesced envelope carries one arm per reliable parcel
// inside it.
struct rto_arm {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t seq = 0;
  int attempt = 1;
  std::shared_ptr<rt::timer_token> token;
};

}  // namespace detail

// ---- distributed_domain -------------------------------------------------

distributed_domain::distributed_domain(domain_config cfg)
    : cfg_(cfg), fabric_(cfg.fabric, cfg.injection_scale, cfg.faults) {
  PX_ASSERT(cfg_.num_localities >= 1);
  PX_ASSERT_MSG(cfg_.reliability.max_retries >= 0,
                "retry budget must be non-negative");
  using rmode = net::reliability_config::mode;
  reliable_ = cfg_.reliability.activation == rmode::on ||
              (cfg_.reliability.activation == rmode::automatic &&
               cfg_.faults.enabled());
  localities_.reserve(cfg_.num_localities);
  for (std::size_t i = 0; i < cfg_.num_localities; ++i)
    localities_.push_back(std::make_unique<locality>(
        *this, static_cast<std::uint32_t>(i), cfg_.locality_cfg));
  dead_ = std::make_unique<std::atomic<bool>[]>(cfg_.num_localities);
  incarnations_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(cfg_.num_localities);
  for (std::size_t i = 0; i < cfg_.num_localities; ++i) {
    dead_[i].store(false, std::memory_order_relaxed);
    incarnations_[i].store(1, std::memory_order_relaxed);
  }
  PX_ASSERT_MSG(cfg_.reliability.initial_seq != 0,
                "seq 0 is reserved for unsequenced frames");
  if (reliable_) {
    links_.reserve(cfg_.num_localities * cfg_.num_localities);
    for (std::size_t i = 0; i < cfg_.num_localities * cfg_.num_localities;
         ++i)
      links_.push_back(std::make_unique<detail::link_state>(
          cfg_.reliability.dedup_capacity, cfg_.reliability.initial_seq));
  }

  // Coalescing: env knobs land on top of the programmatic config, so
  // PX_NET_COALESCE=on batches any domain without a code change.
  coalesce_cfg_ = net::coalescing_config::from_env(cfg_.coalescing);
  coalesce_enabled_ = coalesce_cfg_.enabled && cfg_.num_localities >= 2;
  if (coalesce_enabled_) {
    PX_ASSERT_MSG(coalesce_cfg_.flush_delay_us > 0.0,
                  "the deadline flush is the backstop that bounds buffered "
                  "latency; it cannot be disabled");
    double const scale =
        cfg_.injection_scale > 0.0 ? cfg_.injection_scale : 1.0;
    coalesce_flush_delay_ns_ = static_cast<std::uint64_t>(
        coalesce_cfg_.flush_delay_us * 1000.0 * scale);
    if (coalesce_flush_delay_ns_ == 0) coalesce_flush_delay_ns_ = 1;
    coalesce_.reserve(cfg_.num_localities * cfg_.num_localities);
    for (std::size_t i = 0; i < cfg_.num_localities * cfg_.num_localities;
         ++i)
      coalesce_.push_back(std::make_unique<detail::coalesce_buffer>());
  }

  // Torture invariants, meaningful only at quiescence (see invariant.hpp).
  invariants_.add(
      "obligation-balance", [this]() -> std::optional<std::string> {
        std::uint64_t const n = obligations_in_flight();
        if (n != 0)
          return std::to_string(n) +
                 " obligation(s) in flight at quiescence (leaked frame "
                 "schedule or unsettled ack/RTO)";
        for (auto const& link : links_) {
          std::lock_guard<spinlock> guard(link->lock);
          if (!link->inflight.empty())
            return std::to_string(link->inflight.size()) +
                   " unacked inflight entr(ies) on a link with zero "
                   "obligations";
        }
        for (auto const& buf : coalesce_) {
          std::lock_guard<spinlock> guard(buf->lock);
          if (!buf->pending.empty())
            return std::to_string(buf->pending.size()) +
                   " parcel(s) still coalesce-buffered at quiescence "
                   "(missed flush)";
        }
        return std::nullopt;
      });
  invariants_.add(
      "dedup-window-soundness", [this]() -> std::optional<std::string> {
        for (auto const& link : links_) {
          std::lock_guard<spinlock> guard(link->lock);
          if (link->rx.pending_gaps() > cfg_.reliability.dedup_capacity)
            return "dedup window holds " +
                   std::to_string(link->rx.pending_gaps()) +
                   " gaps, capacity " +
                   std::to_string(cfg_.reliability.dedup_capacity);
          std::uint64_t const floor = link->rx.floor();
          // Serial comparison: the floor wraps with the seqs, so plain <
          // would flag the legitimate UINT64_MAX -> small-seq advance.
          if (net::seq_precedes(floor, link->last_floor))
            return "dedup floor regressed " +
                   std::to_string(link->last_floor) + " -> " +
                   std::to_string(floor);
          link->last_floor = floor;
        }
        return std::nullopt;
      });
  invariants_.add(
      "agas-single-residence", [this]() -> std::optional<std::string> {
        // At quiescence every live GID has exactly one resident copy, no
        // departure is still pinned, no parcel is parked against one, and
        // every forwarding chain to a live object converges within the hop
        // budget (tombstone epochs make cycles impossible; this checks it).
        std::unordered_map<agas::gid, std::uint32_t, agas::identity_hash,
                           agas::identity_eq>
            home;
        for (auto const& loc : localities_) {
          for (auto const& o : loc->agas().snapshot_objects()) {
            if (o.migrating)
              return "gid " + o.g.to_string() +
                     " still pinned `migrating` at quiescence";
            auto const [it, fresh] = home.emplace(o.g, loc->id());
            if (!fresh)
              return "gid " + o.g.to_string() +
                     " resident at both locality " +
                     std::to_string(it->second) + " and " +
                     std::to_string(loc->id());
          }
          if (std::size_t const parked = loc->parked_count(); parked != 0)
            return std::to_string(parked) +
                   " parcel(s) parked at locality " +
                   std::to_string(loc->id()) + " at quiescence";
        }
        for (auto const& loc : localities_) {
          for (auto const& t : loc->agas().snapshot_tombstones()) {
            if (home.find(t.g) == home.end()) continue;  // object destroyed
            std::uint32_t cur = t.dest;
            std::uint32_t hop = 1;
            for (; hop <= cfg_.agas_max_hops; ++hop) {
              auto const r = localities_[cur]->agas().route_of(t.g);
              if (r.kind == agas::route_kind::resident) break;
              if (r.kind != agas::route_kind::forward)
                return "forwarding chain for " + t.g.to_string() +
                       " dead-ends at locality " + std::to_string(cur);
              cur = r.dest;
            }
            if (hop > cfg_.agas_max_hops)
              return "forwarding chain for " + t.g.to_string() +
                     " from locality " + std::to_string(loc->id()) +
                     " does not converge within " +
                     std::to_string(cfg_.agas_max_hops) + " hops";
          }
        }
        return std::nullopt;
      });

  // Env-driven partition schedules (PX_PARTITION_CUT and friends) land on
  // the fault plane before any traffic flows.
  fabric_.faults().apply_env_partition(cfg_.num_localities);

  membership_ = std::make_unique<membership_view>(
      cfg_.num_localities, membership_config::from_env(cfg_.membership));
  if (cfg_.resilience.enabled && cfg_.num_localities >= 2) {
    detector_ = std::make_unique<failure_detector>(*this, cfg_.resilience,
                                                   *membership_);
    detector_->start();
  }
}

distributed_domain::~distributed_domain() {
  // Detector first: after stop() no heartbeat tick or confirm callback can
  // touch this object, so the quiesce below sees only application traffic.
  if (detector_ != nullptr) detector_->stop();
  wait_all_quiescent();
  // Cancelled retransmission timers may still sit in the timer heap; their
  // callbacks are claimed no-ops and never touch this object again. A
  // flush-deadline callback that won its claim race, though, may still be
  // mid-flight (backing off on the buffer a flush emptied) — wait those
  // out before the buffers they are about to lock are freed.
  std::vector<std::shared_ptr<rt::timer_token>> retired;
  {
    std::lock_guard<spinlock> guard(retired_lock_);
    retired.swap(retired_deadline_tokens_);
  }
  for (auto const& token : retired)
    while (token->is_running()) std::this_thread::yield();
  // Localities (and their runtimes) shut down in the unique_ptr dtors.
}

detail::link_state& distributed_domain::link_between(
    std::uint32_t src, std::uint32_t dst) noexcept {
  return *links_[static_cast<std::size_t>(src) * localities_.size() + dst];
}

void distributed_domain::obligation_begin() noexcept {
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
}

void distributed_domain::obligation_done() noexcept {
  // Hot path: a single atomic decrement — every frame delivery and ack
  // settle comes through here, so it must not serialize on a global lock.
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Final decrement of a drain: acquiring the mutex orders this thread
  // after any waiter that checked the predicate and is (or is about to
  // be) asleep in the cv, so the notify cannot be lost; notifying while
  // still holding it means a waiter cannot wake, observe zero and let
  // the destructor run before this thread is done touching quiesce_cv_.
  std::lock_guard<std::mutex> lk(quiesce_mutex_);
  quiesce_cv_.notify_all();
}

void distributed_domain::route(parcel::parcel p) {
  PX_ASSERT_MSG(p.dest < localities_.size(), "parcel to unknown locality");

  if (p.dest == p.source) {  // intra-node: no wire, no charge, no faults
    localities_[p.dest]->deliver(std::move(p));
    return;
  }

  // Prompt failure for traffic involving a confirmed-dead locality: frames
  // sourced by the dead locality's still-draining tasks go nowhere, and
  // new calls *to* it fail immediately instead of burning the full retry
  // budget against a blackhole.
  if (dead_[p.source].load(std::memory_order_acquire)) {
    counters::builtin().net_delivery_failures.add();
    return;
  }
  if (dead_[p.dest].load(std::memory_order_acquire)) {
    counters::builtin().net_delivery_failures.add();
    if (p.response_token != 0 && p.action != parcel::response_action_id) {
      localities_[p.source]->fail_response_slot(
          p.response_token,
          std::make_exception_ptr(locality_down(p.dest)));
    }
    return;
  }

  // Stamp the source's incarnation: receivers key their dedup windows by
  // (link, epoch), so a restarted locality's reset seqs cannot alias.
  p.epoch = incarnation(p.source);

  if (!reliable_) {
    if (coalesce_enabled_) {
      enqueue_coalesced(std::move(p));
      return;
    }
    transmit(std::move(p), 1);
    return;
  }

  // Reliable path: assign the link sequence number and keep a copy for
  // retransmission. The logical-parcel obligation is released on ack or on
  // retry-budget exhaustion, which is what quiesce() waits for. The RTO
  // token is created and installed while still holding the link lock —
  // the invariant (a live inflight entry always carries the unclaimed
  // token of its *current* transmission) is what makes the ack/RTO race
  // settle exactly once.
  std::shared_ptr<rt::timer_token> rto;
  {
    auto& link = link_between(p.source, p.dest);
    std::lock_guard<spinlock> guard(link.lock);
    p.seq = link.next_seq;
    link.next_seq = net::seq_successor(link.next_seq);
    auto& tx = link.inflight[p.seq];
    tx.frame = p;  // payload copied: the original goes on the wire
    tx.attempts = 1;
    tx.backoff_us = net::backoff_us(cfg_.reliability, 0);
    tx.rto = rto = std::make_shared<rt::timer_token>();
  }
  obligation_begin();
  if (coalesce_enabled_) {
    // The parcel waits in the buffer with its RTO token installed but
    // unarmed — nothing can race it onto a timer until the flush puts the
    // envelope on the wire and arms every inner RTO against it.
    enqueue_coalesced(std::move(p));
    return;
  }
  transmit(std::move(p), 1, std::move(rto));
}

// ---- coalescing ---------------------------------------------------------

detail::coalesce_buffer& distributed_domain::buffer_between(
    std::uint32_t src, std::uint32_t dst) noexcept {
  return *coalesce_[static_cast<std::size_t>(src) * localities_.size() +
                    dst];
}

void distributed_domain::enqueue_coalesced(parcel::parcel p) {
  auto const src = p.source;
  auto const dst = p.dest;
  auto& buf = buffer_between(src, dst);
  // One obligation per buffered parcel: a parcel waiting for a flush is in
  // flight as far as quiesce is concerned. Released by flush_batch once
  // the envelope owns its own delivery obligations.
  obligation_begin();
  std::vector<parcel::parcel> batch;
  std::shared_ptr<rt::timer_token> deadline;
  bool arm_deadline = false;
  {
    std::lock_guard<spinlock> guard(buf.lock);
    buf.bytes += net::coalesced_parcel_bytes(p);
    buf.pending.push_back(std::move(p));
    if (buf.pending.size() >= coalesce_cfg_.max_parcels ||
        buf.bytes >= coalesce_cfg_.max_bytes) {
      batch.swap(buf.pending);
      buf.bytes = 0;
      deadline = std::move(buf.deadline);
    } else if (buf.pending.size() == 1) {
      deadline = buf.deadline = std::make_shared<rt::timer_token>();
      arm_deadline = true;
    }
  }
  if (!batch.empty()) {
    if (deadline != nullptr) retire_deadline_token(std::move(deadline));
    counters::builtin().net_flushes_size.add();
    flush_batch(std::move(batch));
    return;
  }
  if (arm_deadline) {
    rt::timer_service::instance().call_at(
        rt::timer_service::clock::now() +
            std::chrono::nanoseconds(coalesce_flush_delay_ns_),
        [this, src, dst] { on_flush_deadline(src, dst); },
        std::move(deadline));
  }
  // Flush-at-quiesce ordering: wait_all_quiescent flushes every buffer
  // after bumping quiescing_, both under the buffer lock. If our insert
  // landed before that steal, the quiesce pass carries the parcel; if
  // after, this re-check (ordered behind the steal by the buffer lock)
  // sees quiescing_ != 0 and flushes immediately. Either way no parcel
  // can sit buffered while the quiesce CV sleeps on its obligation —
  // that interleaving was a hang.
  if (quiescing_.load(std::memory_order_acquire) != 0)
    flush_buffer(buf, counters::builtin().net_flushes_explicit);
}

void distributed_domain::retire_deadline_token(
    std::shared_ptr<rt::timer_token> token) {
  // Winning the claim means the timer fires as a counted no-op and its
  // captures never run — nothing to track. Losing it means the deadline
  // callback is mid-flight on the timer thread, backing off on the buffer
  // this flush just emptied; the batch's obligations transferred to us,
  // so once they drain nothing else stops ~distributed_domain from
  // freeing the buffer the callback is still about to lock. (That exact
  // race — token claimed, callback descheduled, quiesce drains,
  // destructor runs, callback resumes into freed memory and spins on a
  // garbage spinlock — hung the bench suite on a single-core host.)
  // Blocking here would put an OS timeslice on the flush hot path, so
  // park the token instead and let the destructor wait it out once.
  if (token->cancel()) return;
  std::lock_guard<spinlock> guard(retired_lock_);
  std::erase_if(retired_deadline_tokens_,
                [](auto const& t) { return !t->is_running(); });
  retired_deadline_tokens_.push_back(std::move(token));
}

void distributed_domain::flush_buffer(detail::coalesce_buffer& buf,
                                      counters::counter& trigger) {
  std::vector<parcel::parcel> batch;
  std::shared_ptr<rt::timer_token> deadline;
  {
    std::lock_guard<spinlock> guard(buf.lock);
    if (buf.pending.empty()) return;
    batch.swap(buf.pending);
    buf.bytes = 0;
    deadline = std::move(buf.deadline);
  }
  // Claiming a still-armed deadline token turns its timer into a counted
  // no-op; losing the claim means the deadline callback is concurrently
  // stealing — it found (or will find) an empty buffer and backs off.
  if (deadline != nullptr) retire_deadline_token(std::move(deadline));
  trigger.add();
  flush_batch(std::move(batch));
}

void distributed_domain::flush_batch(std::vector<parcel::parcel> batch) {
  if (batch.empty()) return;
  std::size_t const n = batch.size();

  // Collect the *current* RTO token of every reliable parcel in the batch.
  // A missing inflight entry means confirm_failure drained it while the
  // parcel sat buffered — the parcel still rides the envelope (the
  // blackholed wire eats it) but no timer is armed for it.
  std::vector<detail::rto_arm> arms;
  if (reliable_) {
    auto& link = link_between(batch.front().source, batch.front().dest);
    std::lock_guard<spinlock> guard(link.lock);
    arms.reserve(n);
    for (auto const& p : batch) {
      // Only sequenced data parcels retransmit. An ack's seq field names
      // the seq it acknowledges — on this link that can alias one of our
      // own data seqs, so filter by action, not just seq != 0.
      if (p.seq == 0 || p.action == parcel::ack_action_id) continue;
      auto it = link.inflight.find(p.seq);
      if (it == link.inflight.end()) continue;
      arms.push_back({p.source, p.dest, p.seq, it->second.attempts,
                      it->second.rto});
    }
  }

  auto& b = counters::builtin();
  b.net_coalesced_parcels.add(n);
  std::size_t compressed_in = 0, compressed_out = 0;
  parcel::parcel envelope = net::encode_coalesced_frame(
      batch, coalesce_cfg_, &compressed_in, &compressed_out);
  if (compressed_out != 0) {
    b.net_compress_in_bytes.add(compressed_in);
    b.net_compressed_bytes.add(compressed_out);
  }
  put_on_wire(std::move(envelope), std::move(arms));
  // The buffered parcels' enqueue obligations release only now: the
  // envelope's own schedule/ack obligations are live, so the in-flight
  // count never dips to zero mid-handoff.
  for (std::size_t i = 0; i < n; ++i) obligation_done();
}

void distributed_domain::on_flush_deadline(std::uint32_t src,
                                           std::uint32_t dst) {
  auto& buf = buffer_between(src, dst);
  std::vector<parcel::parcel> batch;
  {
    std::lock_guard<spinlock> guard(buf.lock);
    if (buf.pending.empty()) return;  // raced a size/explicit flush
    batch.swap(buf.pending);
    buf.bytes = 0;
    // Our own token is already claimed (the timer service claimed it to
    // run this callback); a *newer* token in the slot belongs to a batch
    // we are stealing early — harmless, its timer no-ops on the empty
    // buffer or flushes the next batch ahead of schedule.
    buf.deadline.reset();
  }
  counters::builtin().net_flushes_deadline.add();
  flush_batch(std::move(batch));
}

void distributed_domain::flush_coalescing() {
  if (!coalesce_enabled_) return;
  for (auto& buf : coalesce_)
    flush_buffer(*buf, counters::builtin().net_flushes_explicit);
}

void distributed_domain::transmit(parcel::parcel frame, int attempt,
                                  std::shared_ptr<rt::timer_token> rto) {
  std::vector<detail::rto_arm> arms;
  if (rto != nullptr)
    arms.push_back({frame.source, frame.dest, frame.seq, attempt,
                    std::move(rto)});
  put_on_wire(std::move(frame), std::move(arms));
}

void distributed_domain::put_on_wire(parcel::parcel frame,
                                     std::vector<detail::rto_arm> arms) {
  // Wire-side torture window: delays here push an inline delivery (and the
  // ack chain it triggers) past a concurrently armed RTO.
  PX_TORTURE_POINT(net_transmit);
  std::size_t const bytes = frame.wire_size();
  fabric_.counters().record(bytes, fabric_.modeled_us(bytes));
  // Cumulative modeled wire time feeds the at-modeled-ns fault triggers
  // (the x1000 fixed-point cell is integer nanoseconds).
  fabric_.faults().advance_modeled_ns(
      fabric_.counters().modeled_us_x1000.load(std::memory_order_relaxed));

  // Arm the retransmission timers before the frame can possibly be
  // delivered. The caller installed each token in its link's inflight
  // entry under the link lock; if an ack settled an entry (and cancelled
  // the token) in the meantime, the timer armed here fires as a counted
  // no-op and the obligation was already released by the ack path.
  if (!arms.empty()) {
    std::uint64_t one_way_ns = fabric_.injected_delay_ns(bytes);
    // A held (reordered / extra-delayed) frame or ack is late, not lost;
    // widen the RTT estimate by the worst-case hold so the first RTO
    // outlives an injected delay instead of guaranteeing a spurious
    // retransmit.
    if (fabric_.faults().enabled())
      one_way_ns += static_cast<std::uint64_t>(
          fabric_.faults().config().max_hold_us() * 1000.0);
    // Coalescing delays both the data frame (this envelope waited out a
    // flush policy) and its acks (they batch on the reverse buffer); widen
    // by both worst cases or every buffered round trip retransmits.
    if (coalesce_enabled_) one_way_ns += 2 * coalesce_flush_delay_ns_;
    auto const now = rt::timer_service::clock::now();
    for (auto& arm : arms) {
      std::uint64_t const rto_ns =
          net::rto_ns(cfg_.reliability, arm.attempt, one_way_ns);
      auto const src = arm.src;
      auto const dst = arm.dst;
      auto const seq = arm.seq;
      rt::timer_service::instance().call_at(
          now + std::chrono::nanoseconds(rto_ns),
          [this, src, dst, seq] { on_rto(src, dst, seq); },
          std::move(arm.token));
    }
  }

  auto const fate = fabric_.faults().sample(frame.source, frame.dest);
  if (fate.drop) {
    counters::builtin().net_drops.add();
    return;  // the armed RTO (if any) repairs this
  }

  // slow_by locality faults stretch the injected delay without touching
  // the modeled accounting (the victim's *wire* is fine; its host is not).
  std::uint64_t const delay_ns =
      static_cast<std::uint64_t>(
          static_cast<double>(fabric_.injected_delay_ns(bytes)) *
          fate.delay_factor) +
      fate.hold_ns;
  if (fate.duplicate) schedule_frame(frame, delay_ns);
  schedule_frame(std::move(frame), delay_ns);
}

void distributed_domain::schedule_frame(parcel::parcel frame,
                                        std::uint64_t delay_ns) {
  if (delay_ns == 0) {
    deliver_frame(std::move(frame));
    return;
  }
  obligation_begin();
  rt::timer_service::instance().call_at(
      rt::timer_service::clock::now() + std::chrono::nanoseconds(delay_ns),
      [this, frame = std::move(frame)]() mutable {
        deliver_frame(std::move(frame));
        obligation_done();
      });
}

void distributed_domain::deliver_frame(parcel::parcel frame) {
  PX_TORTURE_POINT(net_deliver);
  if (frame.action == parcel::coalesced_action_id) {
    // Unpack the envelope and run every logical parcel through this same
    // receive path: each inner parcel carries its own seq/epoch, so dedup,
    // acking and stale-incarnation filtering work per parcel — a duplicate
    // envelope (fault-plane dup, or a solo retransmission racing a held
    // copy) delivers each parcel exactly once. Both ends are in-process,
    // so a corrupt envelope cannot occur; decode throws only on real
    // memory corruption.
    for (auto& inner : net::decode_coalesced_frame(frame))
      deliver_frame(std::move(inner));
    return;
  }
  if (frame.action == parcel::heartbeat_action_id) {
    // Soft liveness state, unsequenced and unacked. A heartbeat from a
    // stale incarnation (or from a locality already confirmed dead) must
    // not resurrect freshness.
    if (detector_ != nullptr &&
        !dead_[frame.source].load(std::memory_order_acquire) &&
        frame.epoch == incarnation(frame.source))
      detector_->heard_from(frame.source, frame.dest);
    return;
  }
  if (frame.action == parcel::probe_action_id) {
    // Indirect liveness probes: same soft-state rules as heartbeats (a
    // stale incarnation or confirmed-dead source proves nothing).
    if (detector_ != nullptr &&
        !dead_[frame.source].load(std::memory_order_acquire) &&
        !dead_[frame.dest].load(std::memory_order_acquire) &&
        frame.epoch == incarnation(frame.source))
      handle_probe(frame);
    return;
  }
  if (frame.action == parcel::ack_action_id) {
    handle_ack(frame);
    return;
  }
  // A frame can still be in flight toward a locality that was confirmed
  // dead after it was scheduled; the wire simply eats it (no ack — nobody
  // is retransmitting to a dead locality, confirm_failure drained those).
  if (dead_[frame.dest].load(std::memory_order_acquire)) return;
  if (reliable_ && frame.seq != 0) {
    bool fresh;
    {
      auto& link = link_between(frame.source, frame.dest);
      std::lock_guard<spinlock> guard(link.lock);
      if (frame.epoch < link.rx_epoch) {
        // A ghost from a previous incarnation of the sender. Its seq means
        // nothing under the current window — acking or deduping it would
        // let dead-past frames alias live ones.
        counters::builtin().resilience_stale_epoch_drops.add();
        return;
      }
      if (frame.epoch > link.rx_epoch) {
        // First frame of a restarted incarnation: its seqs restart at
        // initial_seq, so the window restarts with them.
        link.rx_epoch = frame.epoch;
        link.rx.start_from(cfg_.reliability.initial_seq);
        link.last_floor = link.rx.floor();
      }
      fresh = link.rx.accept(frame.seq);
    }
    // Every arriving copy is acked — a duplicate usually means the ack was
    // lost, and only a fresh ack stops the sender's retransmissions.
    send_ack(frame);
    if (!fresh) {
      counters::builtin().net_dup_suppressed.add();
      return;
    }
  }
  localities_[frame.dest]->deliver(std::move(frame));
}

void distributed_domain::send_ack(parcel::parcel const& data) {
  parcel::parcel ack;
  ack.source = data.dest;
  ack.dest = data.source;
  ack.action = parcel::ack_action_id;
  ack.seq = data.seq;
  // Echo the acked frame's epoch so the sender can tell an ack for its
  // current incarnation's seq from one addressed to a dead past.
  ack.epoch = data.epoch;
  counters::builtin().net_acks.add();
  // Acks are fire-and-forget: no seq of their own, no RTO. A lost ack is
  // repaired by the data frame's retransmission. They batch on the
  // reverse-direction buffer (the sender's RTO is widened by two flush
  // delays to absorb this, see put_on_wire).
  if (coalesce_enabled_) {
    enqueue_coalesced(std::move(ack));
    return;
  }
  transmit(std::move(ack), 1);
}

void distributed_domain::handle_ack(parcel::parcel const& ack) {
  // The data frame travelled ack.dest -> ack.source.
  std::shared_ptr<rt::timer_token> token;
  {
    auto& link = link_between(ack.dest, ack.source);
    std::lock_guard<spinlock> guard(link.lock);
    auto it = link.inflight.find(ack.seq);
    if (it == link.inflight.end()) return;  // duplicate ack; already settled
    if (it->second.frame.epoch != ack.epoch) {
      // The seq matches but the incarnation does not: this ack settles a
      // dead incarnation's frame, not the live entry. Keep the entry; its
      // own ack (or RTO) will settle it.
      counters::builtin().resilience_stale_epoch_drops.add();
      return;
    }
    token = std::move(it->second.rto);
    link.inflight.erase(it);
  }
  // A live entry always carries the unclaimed token of its current
  // transmission (route() and on_rto()'s retry branch install it under
  // the link lock before the frame can hit the wire). cancel() succeeding
  // means this thread owns the obligation release — if the timer is only
  // armed afterwards it fires as a counted no-op. cancel() failing means
  // the RTO callback claimed the token first and is concurrently heading
  // for the link lock; it will find the entry gone and release the
  // obligation itself.
  PX_ASSERT(token != nullptr);
  if (token->cancel()) obligation_done();
}

void distributed_domain::on_rto(std::uint32_t src, std::uint32_t dst,
                                std::uint64_t seq) {
  enum class outcome { settled, failed, retry };
  outcome what;
  parcel::parcel frame;
  int attempts = 0;
  double waited_us = 0.0;
  std::shared_ptr<rt::timer_token> next_rto;
  {
    auto& link = link_between(src, dst);
    std::lock_guard<spinlock> guard(link.lock);
    auto it = link.inflight.find(seq);
    if (it == link.inflight.end()) {
      // Acked in the window between this timer claiming its token and
      // reaching the link lock; the ack path left the obligation to us.
      what = outcome::settled;
    } else {
      waited_us = it->second.backoff_us;
      if (it->second.attempts - 1 >= cfg_.reliability.max_retries) {
        frame = std::move(it->second.frame);
        attempts = it->second.attempts;
        link.inflight.erase(it);
        what = outcome::failed;
      } else {
        it->second.attempts += 1;
        attempts = it->second.attempts;
        frame = it->second.frame;  // copy: the stored one stays for later
        // Install the next transmission's token before dropping the lock.
        // An ack racing this retry then always finds an unclaimed token
        // to cancel — this callback's own token is claimed and this path
        // never releases the obligation, so leaving it in the entry would
        // leak the obligation and hang quiesce. (The leak-reintroduction
        // test flag skips exactly this install; see the retry case below.)
        it->second.backoff_us =
            net::backoff_us(cfg_.reliability, attempts - 1);
        if (!cfg_.reliability.test_reintroduce_ack_retry_leak)
          it->second.rto = next_rto = std::make_shared<rt::timer_token>();
        what = outcome::retry;
      }
    }
  }
  switch (what) {
    case outcome::settled:
      obligation_done();
      return;
    case outcome::failed:
      counters::builtin().net_backoff_us.add(
          static_cast<std::uint64_t>(waited_us + 0.5));
      fail_parcel(std::move(frame), attempts);
      obligation_done();
      return;
    case outcome::retry:
      counters::builtin().net_backoff_us.add(
          static_cast<std::uint64_t>(waited_us + 0.5));
      counters::builtin().net_retransmits.add();
      if (cfg_.reliability.test_reintroduce_ack_retry_leak) {
        // Deliberate re-enactment of the historical ack/RTO leak: the entry
        // still holds this callback's *claimed* token while the lock is
        // dropped. An ack landing in this window finds the claimed token,
        // cancel() fails, the ack path leaves the release to us — and the
        // late install below bails out on the erased entry without ever
        // calling obligation_done(). Torture sleeps at net_transmit widen
        // the window until the seed sweep hits it.
        PX_TORTURE_POINT(net_transmit);
        auto fresh = std::make_shared<rt::timer_token>();
        bool live = false;
        {
          auto& link = link_between(src, dst);
          std::lock_guard<spinlock> guard(link.lock);
          auto it = link.inflight.find(seq);
          if (it != link.inflight.end()) {
            it->second.rto = fresh;
            live = true;
          }
        }
        if (!live) return;  // BUG (intentional): obligation leaked
        transmit(std::move(frame), attempts, std::move(fresh));
        return;
      }
      transmit(std::move(frame), attempts, std::move(next_rto));
      return;
  }
}

void distributed_domain::fail_parcel(parcel::parcel&& p, int attempts) {
  counters::builtin().net_delivery_failures.add();
  if (p.response_token == 0) return;  // fire-and-forget: counted, dropped
  auto reason = std::make_exception_ptr(
      net::delivery_error(p.source, p.dest, p.seq, attempts));
  // A request's response slot lives at the caller (p.source); a response
  // parcel's slot lives at the original caller it was heading to (p.dest).
  locality& owner = p.action == parcel::response_action_id
                        ? *localities_[p.dest]
                        : *localities_[p.source];
  owner.fail_response_slot(p.response_token, std::move(reason));
}

// ---- locality failure & recovery ----------------------------------------

void distributed_domain::confirm_failure(std::uint32_t victim) {
  PX_ASSERT_MSG(victim < localities_.size(), "confirm of unknown locality");
  PX_TORTURE_POINT(fd_confirm);
  {
    std::lock_guard<std::mutex> guard(membership_mutex_);
    if (dead_[victim].load(std::memory_order_acquire)) return;  // idempotent
    // Blackhole the wire first, then publish the dead flag: once readers
    // see the flag the fault plane is already eating the victim's frames.
    fabric_.faults().fail_stop_now(victim);
    dead_[victim].store(true, std::memory_order_release);
    membership_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  counters::builtin().resilience_confirms.add();
  membership_->note_view_change();
  if (detector_ != nullptr) detector_->notify_confirmed(victim);

  // Retransmissions to and from the victim can never be acked; drain them
  // now so quiesce does not wait out the full retry budget against a
  // blackhole. cancel() succeeding transfers the obligation release to us;
  // failing means the RTO callback is live and will settle it.
  if (reliable_) {
    for (std::size_t other = 0; other < localities_.size(); ++other) {
      if (other == victim) continue;
      for (auto* link : {&link_between(victim, static_cast<std::uint32_t>(
                                                   other)),
                         &link_between(static_cast<std::uint32_t>(other),
                                       victim)}) {
        std::vector<detail::pending_tx> drained;
        {
          std::lock_guard<spinlock> guard(link->lock);
          drained.reserve(link->inflight.size());
          for (auto& [seq, tx] : link->inflight)
            drained.push_back(std::move(tx));
          link->inflight.clear();
        }
        for (auto& tx : drained)
          if (tx.rto->cancel()) obligation_done();
      }
    }
  }
  // Parcels still coalesce-buffered to/from the victim can never be acked
  // either; flush them now (the blackholed wire eats the envelopes) so
  // their buffer obligations drain promptly instead of waiting out the
  // deadline timer.
  flush_coalescing();

  // Fail every call that can no longer complete: the victim's own pending
  // calls (its futures' owners may be tasks running on survivors via
  // poisoned mailboxes) and every survivor's calls targeting the victim.
  auto reason = std::make_exception_ptr(locality_down(victim));
  localities_[victim]->fail_all_response_slots(reason);
  for (std::size_t i = 0; i < localities_.size(); ++i)
    if (i != victim)
      localities_[i]->fail_response_slots_to(victim, reason);

  // Application-level recovery last, with transport teardown complete.
  std::vector<std::function<void(std::uint32_t)>> hooks;
  {
    std::lock_guard<std::mutex> guard(hooks_mutex_);
    hooks.reserve(confirm_hooks_.size());
    for (auto& [id, fn] : confirm_hooks_) hooks.push_back(fn);
  }
  for (auto& fn : hooks) fn(victim);
}

void distributed_domain::restart_locality(std::uint32_t loc) {
  PX_ASSERT_MSG(loc < localities_.size(), "restart of unknown locality");
  {
    std::lock_guard<std::mutex> guard(membership_mutex_);
    PX_ASSERT_MSG(dead_[loc].load(std::memory_order_acquire),
                  "restart_locality of a live locality");
    // New incarnation: outbound seqs restart at initial_seq under the
    // bumped epoch. Receiver windows are left alone — they reset lazily on
    // the first frame carrying the new epoch, and meanwhile keep counting
    // stale old-incarnation stragglers.
    incarnations_[loc].fetch_add(1, std::memory_order_acq_rel);
    if (reliable_) {
      for (std::size_t other = 0; other < localities_.size(); ++other) {
        if (other == loc) continue;
        auto& out = link_between(loc, static_cast<std::uint32_t>(other));
        std::lock_guard<spinlock> g(out.lock);
        PX_ASSERT_MSG(out.inflight.empty(),
                      "restart with unacked frames from the dead past");
        out.next_seq = cfg_.reliability.initial_seq;
      }
    }
    fabric_.faults().revive(loc);
    dead_[loc].store(false, std::memory_order_release);
    membership_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Re-admission is a view change and a rejoin: the restarted incarnation
  // adopts the current agreed view.
  membership_->note_view_change();
  membership_->note_rejoin();
  if (detector_ != nullptr) detector_->notify_restart(loc);
}

bool distributed_domain::is_confirmed_dead(std::uint32_t loc) const noexcept {
  return loc < localities_.size() &&
         dead_[loc].load(std::memory_order_acquire);
}

std::vector<std::uint32_t> distributed_domain::confirmed_dead() const {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < localities_.size(); ++i)
    if (dead_[i].load(std::memory_order_acquire))
      out.push_back(static_cast<std::uint32_t>(i));
  return out;
}

std::uint64_t distributed_domain::incarnation(
    std::uint32_t loc) const noexcept {
  return incarnations_[loc].load(std::memory_order_acquire);
}

std::uint64_t distributed_domain::add_confirm_hook(
    std::function<void(std::uint32_t)> hook) {
  std::lock_guard<std::mutex> guard(hooks_mutex_);
  std::uint64_t const id = next_hook_id_++;
  confirm_hooks_.emplace(id, std::move(hook));
  return id;
}

void distributed_domain::remove_confirm_hook(std::uint64_t id) {
  std::lock_guard<std::mutex> guard(hooks_mutex_);
  confirm_hooks_.erase(id);
}

std::size_t distributed_domain::confirm_hook_count() {
  std::lock_guard<std::mutex> guard(hooks_mutex_);
  return confirm_hooks_.size();
}

void distributed_domain::send_heartbeat(std::uint32_t src,
                                        std::uint32_t dst) {
  if (dead_[src].load(std::memory_order_acquire) ||
      dead_[dst].load(std::memory_order_acquire))
    return;
  parcel::parcel hb;
  hb.source = src;
  hb.dest = dst;
  hb.action = parcel::heartbeat_action_id;
  hb.epoch = incarnation(src);
  counters::builtin().resilience_heartbeats.add();
  // Heartbeats bypass the reliable path on purpose: they are periodic soft
  // state, and retransmitting a stale one would only forge liveness.
  transmit(std::move(hb), 1);
}

namespace {

// Probe frame payload: [kind u8][origin u32 LE][target u32 LE]. kind walks
// the relay exchange: request (origin -> relay), ping (relay -> target),
// ack (target -> relay -> origin).
constexpr std::uint8_t probe_kind_request = 0;
constexpr std::uint8_t probe_kind_ping = 1;
constexpr std::uint8_t probe_kind_ack = 2;

void encode_probe_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xffu));
}

std::uint32_t decode_probe_u32(std::vector<std::byte> const& in,
                               std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(in[at + i]))
         << (8 * i);
  return v;
}

}  // namespace

void distributed_domain::send_probe_frame(std::uint32_t src,
                                          std::uint32_t dst,
                                          std::uint8_t kind,
                                          std::uint32_t origin,
                                          std::uint32_t target) {
  if (dead_[src].load(std::memory_order_acquire) ||
      dead_[dst].load(std::memory_order_acquire))
    return;
  parcel::parcel p;
  p.source = src;
  p.dest = dst;
  p.action = parcel::probe_action_id;
  p.epoch = incarnation(src);
  p.payload.reserve(9);
  p.payload.push_back(static_cast<std::byte>(kind));
  encode_probe_u32(p.payload, origin);
  encode_probe_u32(p.payload, target);
  // Same transport rules as heartbeats: unsequenced, unacked soft state. A
  // lost probe is just a failed liveness check; the next silence episode
  // launches another round.
  transmit(std::move(p), 1);
}

void distributed_domain::send_probe_request(std::uint32_t origin,
                                            std::uint32_t relay,
                                            std::uint32_t target) {
  PX_ASSERT(origin < localities_.size() && relay < localities_.size() &&
            target < localities_.size());
  counters::builtin().membership_indirect_probes.add();
  send_probe_frame(origin, relay, probe_kind_request, origin, target);
}

void distributed_domain::handle_probe(parcel::parcel const& frame) {
  if (frame.payload.size() != 9) return;  // malformed; soft state, drop
  auto const kind = std::to_integer<std::uint8_t>(frame.payload[0]);
  std::uint32_t const origin = decode_probe_u32(frame.payload, 1);
  std::uint32_t const target = decode_probe_u32(frame.payload, 5);
  if (origin >= localities_.size() || target >= localities_.size()) return;
  // Every surviving probe frame is live evidence of its *sender* toward its
  // receiver, exactly like a heartbeat.
  detector_->heard_from(frame.source, frame.dest);
  switch (kind) {
    case probe_kind_request:
      // We are the relay: ping the target on the origin's behalf.
      send_probe_frame(frame.dest, target, probe_kind_ping, origin, target);
      break;
    case probe_kind_ping:
      // We are the target: answer toward whoever pinged us (the relay).
      send_probe_frame(frame.dest, frame.source, probe_kind_ack, origin,
                       target);
      break;
    case probe_kind_ack:
      if (frame.dest == origin) {
        // Terminal hop: the relay path proved the target alive; refresh the
        // origin's own freshness cell for it.
        detector_->heard_from(target, origin);
      } else {
        // We are the relay: forward the proof to the origin.
        send_probe_frame(frame.dest, origin, probe_kind_ack, origin, target);
      }
      break;
    default:
      break;  // unknown kind; drop
  }
}

namespace {

// Pauses heartbeat ticks for the duration of a quiesce wait: periodic
// heartbeat frames would keep the obligation count hot forever, and a tick
// observing the artificial silence afterwards would confirm phantom
// failures. The detector refreshes its freshness clocks on unpause.
struct heartbeat_pause {
  explicit heartbeat_pause(std::atomic<std::uint32_t>& depth) : depth_(depth) {
    depth_.fetch_add(1, std::memory_order_acq_rel);
  }
  ~heartbeat_pause() { depth_.fetch_sub(1, std::memory_order_acq_rel); }
  std::atomic<std::uint32_t>& depth_;
};

}  // namespace

void distributed_domain::wait_all_quiescent() {
  heartbeat_pause pause(quiescing_);
  // Parcels can respawn tasks and tasks can send parcels, so iterate until
  // a full pass observes no activity anywhere. The in-flight wait is
  // condition-variable driven: obligation_done() signals when the count
  // (scheduled frames + unacked reliable parcels) drains to zero.
  for (;;) {
    for (auto& loc : localities_) loc->rt().wait_quiescent();
    // Flush-at-quiesce ordering: buffered parcels hold obligations, so
    // they must hit the wire before the CV below can ever see zero. The
    // bump of quiescing_ above plus the enqueue-side re-check (see
    // enqueue_coalesced) closes the race where a parcel lands in a buffer
    // after this pass.
    flush_coalescing();
    {
      std::unique_lock<std::mutex> lk(quiesce_mutex_);
      quiesce_cv_.wait(lk, [this] {
        return in_flight_.load(std::memory_order_acquire) == 0;
      });
    }
    bool all_quiet = true;
    for (auto& loc : localities_)
      if (loc->sched().active_tasks() != 0) all_quiet = false;
    if (all_quiet && in_flight_.load(std::memory_order_acquire) == 0) {
      // The domain just proclaimed itself idle: under a torture run its
      // accounting invariants must hold right here.
      if (torture::active()) invariants_.assert_holds("wait_all_quiescent");
      return;
    }
  }
}

bool distributed_domain::wait_all_quiescent_for(
    std::chrono::nanoseconds timeout) {
  heartbeat_pause pause(quiescing_);
  auto const deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    for (auto& loc : localities_) loc->rt().wait_quiescent();
    flush_coalescing();  // same flush-before-CV ordering as the unbounded wait
    {
      std::unique_lock<std::mutex> lk(quiesce_mutex_);
      if (!quiesce_cv_.wait_until(lk, deadline, [this] {
            return in_flight_.load(std::memory_order_acquire) == 0;
          }))
        return false;  // leaked obligation: the count will never drain
    }
    bool all_quiet = true;
    for (auto& loc : localities_)
      if (loc->sched().active_tasks() != 0) all_quiet = false;
    if (all_quiet && in_flight_.load(std::memory_order_acquire) == 0)
      return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
  }
}

}  // namespace px::dist

// px/dist/distributed_domain.hpp
// The virtual cluster: N localities connected by a modeled fabric. Parcels
// between distinct localities are charged the fabric's alpha-beta cost
// (accounted at paper scale) and delivered after an injection-scaled real
// delay through the timer service, so compute/communication overlap in the
// runtime is real, not simulated away.
//
// When the fabric is lossy (fault injection enabled, see fault_plane.hpp)
// the domain runs the parcel reliability protocol: per-link sequence
// numbers, receiver-side dedup, ack frames and timer-driven retransmission
// with exponential backoff (see reliability.hpp for the policy half and
// docs/ARCHITECTURE.md for the state machines).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "px/dist/failure_detector.hpp"
#include "px/dist/locality.hpp"
#include "px/dist/membership.hpp"
#include "px/lcos/async.hpp"
#include "px/net/coalesce.hpp"
#include "px/net/fabric.hpp"
#include "px/net/reliability.hpp"
#include "px/support/spin.hpp"
#include "px/torture/invariant.hpp"

namespace px::rt {
class timer_token;  // px/runtime/timer_service.hpp
}

namespace px::dist {

namespace detail {
struct link_state;       // per ordered (src,dst) pair; defined in the .cpp
struct coalesce_buffer;  // per ordered (src,dst) coalescing buffer
struct rto_arm;          // one RTO to arm against a wire frame
}

struct domain_config {
  std::size_t num_localities = 2;
  // Worker pool per locality. Keep modest: localities multiply threads.
  scheduler_config locality_cfg = [] {
    scheduler_config cfg;
    cfg.num_workers = 2;
    return cfg;
  }();
  net::fabric_model fabric = net::infiniband_edr();
  // Real-sleep per modeled microsecond during in-process runs. 1.0 injects
  // true modeled delays; 0 delivers immediately (accounting only).
  double injection_scale = 1.0;
  // Lossy-fabric fault injection (off by default: all probabilities 0).
  net::fault_config faults;
  // Ack/retransmit layer; `automatic` activates it iff faults.enabled().
  net::reliability_config reliability;
  // Parcel coalescing under the reliability layer (off by default).
  net::coalescing_config coalescing;
  // Heartbeat failure detector (off by default). When enabled the domain
  // runs a detector on the timer thread, with quorum membership
  // (px/dist/membership.hpp) and indirect probes riding on it; confirmed
  // failures tear down the victim's transport state and fire the
  // registered confirm hooks.
  resilience_config resilience;
  // Forwarding-hop budget for component-addressed parcels: a parcel
  // chasing a migrated GID may be re-routed along departure tombstones at
  // most this many times before the call fails with hop_budget_exhausted.
  // Tombstone epochs make chains acyclic, so the budget only has to cover
  // the longest plausible migration chain between two cache refreshes.
  std::uint32_t agas_max_hops = 8;
};

class distributed_domain {
 public:
  explicit distributed_domain(domain_config cfg);
  ~distributed_domain();

  distributed_domain(distributed_domain const&) = delete;
  distributed_domain& operator=(distributed_domain const&) = delete;

  [[nodiscard]] std::size_t size() const noexcept {
    return localities_.size();
  }
  [[nodiscard]] locality& at(std::size_t i) { return *localities_[i]; }
  [[nodiscard]] net::fabric& fabric() noexcept { return fabric_; }

  // True when the reliability layer sequences/acks/retransmits parcels.
  [[nodiscard]] bool reliable() const noexcept { return reliable_; }

  [[nodiscard]] std::uint32_t agas_max_hops() const noexcept {
    return cfg_.agas_max_hops;
  }

  // True when inter-locality parcels are batched through per-destination
  // coalescing buffers (px/net/coalesce.hpp).
  [[nodiscard]] bool coalescing() const noexcept { return coalesce_enabled_; }
  [[nodiscard]] net::coalescing_config const& coalesce_config()
      const noexcept {
    return cfg_.coalescing;
  }

  // Routes a parcel from its source to its destination locality.
  void route(parcel::parcel p);

  // Explicit flush policy: drains every coalescing buffer onto the wire.
  // Called at step/barrier boundaries (dist_barrier, the heat solver's halo
  // exchange) and by every quiesce pass; no-op when coalescing is off.
  void flush_coalescing();

  // Blocks until every locality's scheduler is quiescent *and* no parcels
  // are still in flight (scheduled frames, unacked reliable parcels).
  void wait_all_quiescent();

  // Bounded variant for torture tests: returns false when the in-flight
  // count has not drained by `timeout` (a leaked obligation, exactly what
  // the obligation-balance invariant exists to catch). The locality
  // schedulers are still waited on unconditionally — only the in-flight
  // drain is bounded. Both forms check the torture invariants when they
  // find the domain quiet.
  [[nodiscard]] bool wait_all_quiescent_for(std::chrono::nanoseconds timeout);

  // Current in-flight obligation count (scheduled frames + unacked reliable
  // parcels). Monitoring/test visibility; racy by nature.
  [[nodiscard]] std::uint64_t obligations_in_flight() const noexcept {
    return in_flight_.load(std::memory_order_acquire);
  }

  // Unregisters this domain's torture invariants early. A torture property
  // that diagnosed a corrupted domain (quiesce timeout) and deliberately
  // leaks it must call this first, or the dead domain's checks would fail
  // every later seed.
  void detach_invariants() noexcept { invariants_.release(); }

  // Runs `f(locality0)` as a task on locality 0 and returns its result —
  // the virtual cluster's "main".
  template <typename F>
  auto run(F f) {
    return px::sync_wait(at(0).rt(), [this, f = std::move(f)]() mutable {
      return f(at(0));
    });
  }

  // ---- locality failure & recovery (see docs/ARCHITECTURE.md §4.2) ------

  // Declares `loc` dead: blackholes its wire (fault plane), advances the
  // membership epoch, cancels every retransmission to/from it (the unacked
  // parcels can never be acked), promptly fails every pending call that
  // awaits a response from it with px::dist::locality_down, and runs the
  // registered confirm hooks. Idempotent; safe from the timer thread (the
  // failure detector's confirm path lands here) and from tests.
  void confirm_failure(std::uint32_t victim);

  // Re-admits a previously confirmed-dead locality with a bumped
  // incarnation: its outbound sequence numbers restart at 1 under the new
  // epoch, so receivers reset their dedup windows instead of mistaking the
  // fresh frames for duplicates (and count any stale old-incarnation frames
  // in /px/resilience/stale_epoch_drops).
  void restart_locality(std::uint32_t loc);

  [[nodiscard]] bool is_confirmed_dead(std::uint32_t loc) const noexcept;
  // Snapshot of all currently confirmed-dead localities, ascending.
  [[nodiscard]] std::vector<std::uint32_t> confirmed_dead() const;

  // Incarnation of `loc` (starts at 1, bumped by restart_locality); stamps
  // every frame the locality sources (parcel::parcel::epoch).
  [[nodiscard]] std::uint64_t incarnation(std::uint32_t loc) const noexcept;

  // Domain-wide membership version: bumped on every confirm and restart.
  [[nodiscard]] std::uint64_t membership_epoch() const noexcept {
    return membership_epoch_.load(std::memory_order_acquire);
  }

  // Confirm hooks run on the confirming thread after transport teardown;
  // application-level recovery (mailbox poisoning, barrier abort) hangs off
  // these. The returned id unregisters the hook.
  std::uint64_t add_confirm_hook(std::function<void(std::uint32_t)> hook);
  void remove_confirm_hook(std::uint64_t id);
  [[nodiscard]] std::size_t confirm_hook_count();

  // Detector plumbing. send_heartbeat puts one unsequenced heartbeat frame
  // on the wire (it rides the fabric and its fault plane, so a dead
  // locality's heartbeats vanish organically). heartbeats_paused() is true
  // while a quiesce wait is in progress — the detector skips whole ticks
  // then, so heartbeat traffic cannot keep the obligation count hot, and
  // refreshes its freshness clocks when unpaused so the gap is not
  // mistaken for silence.
  void send_heartbeat(std::uint32_t src, std::uint32_t dst);
  [[nodiscard]] bool heartbeats_paused() const noexcept {
    return quiescing_.load(std::memory_order_acquire) != 0;
  }
  [[nodiscard]] failure_detector* detector() noexcept {
    return detector_.get();
  }
  [[nodiscard]] resilience_config const& resilience() const noexcept {
    return cfg_.resilience;
  }

  // ---- quorum membership (see docs/ARCHITECTURE.md §4.5) ----------------

  // The domain-wide membership ledger: fenced flags plus /px/membership/*
  // accounting. Always present (the fencing gates consult it lock-free);
  // only the detector ever fences anyone, so without resilience every
  // locality stays permanently unfenced.
  [[nodiscard]] membership_view& membership() noexcept { return *membership_; }
  // True while `loc` sits on the minority side of a partition and must
  // refuse migration commits, checkpoint commits, rebalancer moves and new
  // tenant admissions (px::dist::fenced_error) until heal.
  [[nodiscard]] bool is_fenced(std::uint32_t loc) const noexcept {
    return membership_->fenced(loc);
  }

  // Detector plumbing for SWIM-style indirect probing: `origin` suspects
  // `target` and routes a liveness check through `relay`. The three-hop
  // exchange (request -> ping -> ack, each an unsequenced probe frame on
  // the fabric) refreshes origin's freshness cell for target iff a path
  // through the relay exists in both directions — exactly what a one-way
  // origin<->target link cannot forge.
  void send_probe_request(std::uint32_t origin, std::uint32_t relay,
                          std::uint32_t target);

 private:
  // ---- reliability transport (see docs/ARCHITECTURE.md) ----------------
  [[nodiscard]] detail::link_state& link_between(std::uint32_t src,
                                                 std::uint32_t dst) noexcept;
  // Puts one frame on the wire: traffic accounting (exactly one
  // traffic_counters::record per frame), RTO arming for every logical
  // parcel the frame carries, fault sampling, delivery scheduling. A plain
  // frame arms at most one RTO; a coalesced envelope arms one per reliable
  // parcel inside.
  void put_on_wire(parcel::parcel frame, std::vector<detail::rto_arm> arms);
  // Single-parcel wrapper over put_on_wire (the historical signature).
  // `attempt` is the 1-based transmission count for this seq; `rto` must be
  // the token the caller pre-installed in the link's inflight entry.
  void transmit(parcel::parcel frame, int attempt,
                std::shared_ptr<rt::timer_token> rto = nullptr);
  // ---- coalescing (see docs/ARCHITECTURE.md §4.3) ----------------------
  [[nodiscard]] detail::coalesce_buffer& buffer_between(
      std::uint32_t src, std::uint32_t dst) noexcept;
  // Buffers a routed parcel; flushes immediately on a size/count threshold
  // or when a quiesce is in progress, arms the deadline timer when the
  // parcel is the first into an empty buffer.
  void enqueue_coalesced(parcel::parcel p);
  // Steals and flushes one buffer's batch, counting `trigger` (a
  // builtin_counters flush cell). No-op on an empty buffer.
  void retire_deadline_token(std::shared_ptr<rt::timer_token> token);
  void flush_buffer(detail::coalesce_buffer& buf,
                    counters::counter& trigger);
  // Encodes a stolen batch into one envelope and puts it on the wire,
  // collecting the current RTO token of every reliable parcel inside.
  void flush_batch(std::vector<parcel::parcel> batch);
  void on_flush_deadline(std::uint32_t src, std::uint32_t dst);
  // Schedules delivery after `delay_ns` of real time (inline when 0).
  void schedule_frame(parcel::parcel frame, std::uint64_t delay_ns);
  // Receiver-side transport: ack handling, dedup + ack for data frames.
  void deliver_frame(parcel::parcel frame);
  // Consumes one probe frame at its destination: relays forward requests
  // as pings and acks back toward the origin; the origin feeds the
  // detector. See send_probe_request.
  void handle_probe(parcel::parcel const& frame);
  // Emits one unsequenced probe frame (kind/origin/target payload).
  void send_probe_frame(std::uint32_t src, std::uint32_t dst,
                        std::uint8_t kind, std::uint32_t origin,
                        std::uint32_t target);
  void send_ack(parcel::parcel const& data);
  void handle_ack(parcel::parcel const& ack);
  void on_rto(std::uint32_t src, std::uint32_t dst, std::uint64_t seq);
  // Retry budget exhausted: counts the failure and fails the associated
  // response slot (if any) with net::delivery_error.
  void fail_parcel(parcel::parcel&& p, int attempts);

  // ---- in-flight obligation accounting ---------------------------------
  // One obligation per scheduled frame and per unacked reliable parcel;
  // quiesce waits (on a condition variable, not a busy poll) until the
  // count drains to zero.
  void obligation_begin() noexcept;
  void obligation_done() noexcept;
  // The quiesce loop behind both public waits. Without a deadline it waits
  // as long as the drain takes; with one it returns false once the
  // deadline passes before the domain is quiet.
  bool wait_quiet(
      std::optional<std::chrono::steady_clock::time_point> deadline);

  domain_config const cfg_;
  net::fabric fabric_;
  bool reliable_ = false;
  std::vector<std::unique_ptr<locality>> localities_;
  std::vector<std::unique_ptr<detail::link_state>> links_;

  // Coalescing state: whether cfg_.coalescing applies (it needs two
  // localities), the deadline's real-time delay (flush_delay_us scaled by
  // injection_scale; scale 0 runs at scale 1 so accounting-only domains
  // still flush), and one buffer per ordered (src,dst) pair.
  bool coalesce_enabled_ = false;
  std::uint64_t coalesce_flush_delay_ns_ = 0;
  std::vector<std::unique_ptr<detail::coalesce_buffer>> coalesce_;
  // Flush-deadline tokens whose cancel lost the claim race: the callback
  // is (or was) mid-flight on the timer thread. The destructor must wait
  // them out before freeing the buffers they are about to lock; the hot
  // flush paths only append here (rare) instead of blocking inline.
  spinlock retired_lock_;
  std::vector<std::shared_ptr<rt::timer_token>> retired_deadline_tokens_;

  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;
  std::atomic<std::uint64_t> in_flight_{0};
  // Nested wait_all_quiescent calls are legal; track a depth, not a flag.
  std::atomic<std::uint32_t> quiescing_{0};

  // ---- membership state -------------------------------------------------
  // Fixed-size atomic arrays (localities never resize) so the hot route()
  // path reads them lock-free.
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> incarnations_;
  std::atomic<std::uint64_t> membership_epoch_{1};
  std::mutex membership_mutex_;  // serializes confirm/restart transitions
  std::mutex hooks_mutex_;
  std::uint64_t next_hook_id_ = 1;
  std::unordered_map<std::uint64_t, std::function<void(std::uint32_t)>>
      confirm_hooks_;
  // Declared before the detector: the detector holds a reference and must
  // be torn down first.
  std::unique_ptr<membership_view> membership_;
  std::unique_ptr<failure_detector> detector_;

  // Torture invariants (obligation-balance, dedup-window-soundness).
  // Declared last so the registrations are torn down before the links and
  // localities the checks read.
  torture::invariant_registration invariants_;
};

}  // namespace px::dist

// px/dist/failure_detector.hpp
// Heartbeat-based locality failure detection for the virtual cluster, in
// the shape real HPX deployments layer over their parcelports: every
// locality periodically announces liveness to every other; a locality whose
// heartbeats go silent past `suspect_after_us` is suspected, and past
// `confirm_after_us` is confirmed dead, at which point the domain tears
// down the victim's transport state (see
// distributed_domain::confirm_failure) and application-level recovery
// hooks run.
//
// In-process the detector is a single object driven by the shared
// timer_service thread: each tick sends the full heartbeat mesh (the frames
// cross the modeled fabric and its fault plane, so a fail-stopped or hung
// locality goes silent *organically*) and evaluates freshness. Freshness is
// kept *per observer*: `heard(O, P)` is the last instant observer O heard a
// frame from peer P, so a partition that cuts only some links produces
// exactly the divergent opinions it would on real hardware. Two mechanisms
// then keep those opinions from doing damage (docs/ARCHITECTURE.md §4.5):
//
//  - SWIM-style indirect probes: before an observer's silence on a peer
//    escalates to `suspect`, the observer routes k liveness probes through
//    random third-party relays. A healthy peer behind a lossy or one-way
//    link answers via the relay, the observer's freshness cell refreshes,
//    and the false suspicion is averted (counted at
//    /px/membership/false_suspect_averted).
//
//  - Quorum membership (px/dist/membership.hpp): only observers that can
//    reach a strict majority of the live view may drive suspect/confirm;
//    minority-side observers are fenced and their opinions ignored, so a
//    partition can never confirm-kill the majority side.
//
// Membership is versioned: the domain's membership epoch advances on every
// confirm and restart, and each locality carries an incarnation number
// that stamps its frames (see parcel::parcel::epoch) so a restarted
// locality's reset sequence numbers can never alias the dedup window.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace px::rt {
class timer_token;  // px/runtime/timer_service.hpp
}

namespace px::dist {

class distributed_domain;
class membership_view;

// Thrown through futures (and poisoned mailboxes/barriers) whose completion
// depends on a locality that has been confirmed dead.
class locality_down : public std::runtime_error {
 public:
  explicit locality_down(std::uint32_t loc)
      : std::runtime_error("px::dist::locality_down: locality " +
                           std::to_string(loc) + " confirmed failed"),
        loc_(loc) {}

  [[nodiscard]] std::uint32_t which() const noexcept { return loc_; }

 private:
  std::uint32_t loc_;
};

// Failure-detection knobs (real time, not modeled time: heartbeats ride the
// injection-scaled fabric like every other frame, but the suspicion
// thresholds are wall-clock deadlines on the receiving side).
struct resilience_config {
  bool enabled = false;
  double heartbeat_interval_us = 2000.0;
  // Silence thresholds. Must satisfy
  //   heartbeat_interval < suspect_after < confirm_after
  // with enough slack to absorb fabric delay and fault-plane holds. When
  // indirect probes are enabled, both thresholds stretch by a probe grace
  // of two heartbeat intervals so a relay round-trip can land before the
  // observer escalates.
  double suspect_after_us = 8000.0;
  double confirm_after_us = 16000.0;
  // Indirect probes routed through distinct random peers before a silent
  // heartbeat escalates to `suspect` (SWIM-style). 0 disables probing.
  std::size_t indirect_probes = 2;
};

// One locality's standing with the detector.
enum class member_state : std::uint8_t { alive, suspect, dead };

class failure_detector {
 public:
  failure_detector(distributed_domain& dom, resilience_config cfg,
                   membership_view& membership);
  ~failure_detector();

  failure_detector(failure_detector const&) = delete;
  failure_detector& operator=(failure_detector const&) = delete;

  // Arms the first tick. Separate from the constructor so the domain can
  // finish wiring before heartbeats flow.
  void start();

  // Cancels the armed tick and waits out any tick in progress. After
  // stop() returns, no detector callback will ever touch the domain again
  // — the domain destructor calls this *before* tearing down localities
  // (the cancelled heap entry later fires as a counted no-op,
  // /px/timer/callbacks_cancelled). Idempotent.
  void stop();

  [[nodiscard]] member_state state_of(std::uint32_t loc) const;
  // Bumped on every standing transition for `loc` (alive -> suspect,
  // suspect -> alive, -> dead, restart). Lets tests assert that the ladder
  // moved monotonically within one membership epoch, and lets the suspect
  // path detect a revive that raced its callback (see tick()).
  [[nodiscard]] std::uint64_t state_generation(std::uint32_t loc) const;
  [[nodiscard]] resilience_config const& config() const noexcept {
    return cfg_;
  }

  // Observer callback, invoked from the timer thread on the alive->suspect
  // transition. Register before failures can happen; keep it cheap. A
  // confirmed death runs the domain's confirm hooks
  // (distributed_domain::add_confirm_hook).
  void on_suspect(std::function<void(std::uint32_t)> fn);

  // Transport feed: a heartbeat/probe frame from `src` survived the fabric
  // and reached `observer`. Refreshes the (observer, src) freshness cell
  // only — other observers learn nothing, exactly as on a real wire.
  void heard_from(std::uint32_t src, std::uint32_t observer);

  // Membership feed from the domain: `loc` was confirmed dead /
  // re-admitted after a restart.
  void notify_confirmed(std::uint32_t loc);
  void notify_restart(std::uint32_t loc);

 private:
  using clock = std::chrono::steady_clock;

  void tick();
  void arm_next();
  [[nodiscard]] static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now().time_since_epoch())
            .count());
  }
  void refresh_all(std::uint64_t now);
  [[nodiscard]] std::uint64_t silence(std::uint32_t observer,
                                      std::uint32_t peer,
                                      std::uint64_t now) const noexcept {
    std::uint64_t const heard =
        heard_[observer * n_ + peer].load(std::memory_order_relaxed);
    return now > heard ? now - heard : 0;
  }
  // Tick-thread-only xorshift for probe relay selection (deterministic
  // seed: relay choice must not perturb torture-mode reproducibility).
  [[nodiscard]] std::uint64_t next_random() noexcept {
    std::uint64_t x = rng_state_;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return rng_state_ = x;
  }

  distributed_domain& dom_;
  resilience_config const cfg_;
  membership_view& membership_;
  std::size_t const n_;
  std::uint64_t const interval_ns_;
  std::uint64_t const suspect_ns_;
  std::uint64_t const confirm_ns_;
  // Extra silence granted beyond suspect/confirm when indirect probing is
  // on: two intervals covers the probe round-trip through a relay.
  std::uint64_t const probe_grace_ns_;

  // Per-observer freshness matrix, heard_[observer * n_ + peer] = ns since
  // steady epoch of the last frame `observer` received from `peer`.
  // Written by the transport (delivery path) and by ticks; read by ticks —
  // atomic throughout. Standing stays global (one ladder per peer, driven
  // by quorate observers) in state_, with gen_ counting transitions.
  std::unique_ptr<std::atomic<std::uint64_t>[]> heard_;
  std::unique_ptr<std::atomic<member_state>[]> state_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> gen_;
  // probing_[observer * n_ + peer]: an indirect-probe round is in flight
  // for this silence episode. Tick-thread-only bookkeeping.
  std::vector<char> probing_;
  std::uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;

  std::mutex mutex_;  // guards token_, suspect_cbs_, stopped_
  std::shared_ptr<rt::timer_token> token_;
  std::vector<std::function<void(std::uint32_t)>> suspect_cbs_;
  bool stopped_ = false;
  bool started_ = false;
  bool was_paused_ = false;
  std::atomic<bool> in_tick_{false};
};

}  // namespace px::dist

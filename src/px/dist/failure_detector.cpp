#include "px/dist/failure_detector.hpp"

#include <algorithm>
#include <thread>

#include "px/counters/counters.hpp"
#include "px/dist/distributed_domain.hpp"
#include "px/dist/membership.hpp"
#include "px/runtime/timer_service.hpp"
#include "px/support/assert.hpp"
#include "px/torture/torture.hpp"

namespace px::dist {

failure_detector::failure_detector(distributed_domain& dom,
                                   resilience_config cfg,
                                   membership_view& membership)
    : dom_(dom),
      cfg_(cfg),
      membership_(membership),
      n_(dom.size()),
      interval_ns_(
          static_cast<std::uint64_t>(cfg.heartbeat_interval_us * 1000.0)),
      suspect_ns_(static_cast<std::uint64_t>(cfg.suspect_after_us * 1000.0)),
      confirm_ns_(static_cast<std::uint64_t>(cfg.confirm_after_us * 1000.0)),
      probe_grace_ns_(
          cfg.indirect_probes > 0 && dom.size() >= 3
              ? 2 * static_cast<std::uint64_t>(cfg.heartbeat_interval_us *
                                               1000.0)
              : 0) {
  PX_ASSERT_MSG(interval_ns_ > 0, "heartbeat interval must be positive");
  PX_ASSERT_MSG(interval_ns_ < suspect_ns_ && suspect_ns_ < confirm_ns_,
                "need heartbeat_interval < suspect_after < confirm_after");
  std::uint64_t const now = now_ns();
  heard_ = std::make_unique<std::atomic<std::uint64_t>[]>(n_ * n_);
  for (std::size_t i = 0; i < n_ * n_; ++i)
    heard_[i].store(now, std::memory_order_relaxed);
  state_ = std::make_unique<std::atomic<member_state>[]>(n_);
  gen_ = std::make_unique<std::atomic<std::uint64_t>[]>(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    state_[i].store(member_state::alive, std::memory_order_relaxed);
    gen_[i].store(0, std::memory_order_relaxed);
  }
  probing_.assign(n_ * n_, 0);
}

failure_detector::~failure_detector() { stop(); }

void failure_detector::refresh_all(std::uint64_t now) {
  for (std::size_t i = 0; i < n_ * n_; ++i)
    heard_[i].store(now, std::memory_order_relaxed);
}

void failure_detector::start() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (started_ || stopped_) return;
  started_ = true;
  refresh_all(now_ns());
  arm_next();
}

void failure_detector::stop() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (stopped_) return;
    stopped_ = true;
    if (token_ != nullptr) token_->cancel();
    token_.reset();
  }
  // A tick that claimed its token before the cancel may still be running;
  // it re-checks stopped_ before touching the domain and never re-arms,
  // but we must not return while it is mid-flight.
  while (in_tick_.load(std::memory_order_acquire)) std::this_thread::yield();
}

void failure_detector::arm_next() {
  // Caller holds mutex_ and has checked stopped_.
  token_ = std::make_shared<rt::timer_token>();
  rt::timer_service::instance().call_at(
      rt::timer_service::clock::now() + std::chrono::nanoseconds(interval_ns_),
      [this] { tick(); }, token_);
}

void failure_detector::tick() {
  in_tick_.store(true, std::memory_order_release);
  struct tick_guard {
    std::atomic<bool>& flag;
    ~tick_guard() { flag.store(false, std::memory_order_release); }
  } guard{in_tick_};

  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stopped_) return;
  }
  PX_TORTURE_POINT(fd_tick);

  // A quiesce wait is in progress: skip the whole tick. No heartbeats flow
  // (they would keep the obligation count from draining) and no freshness
  // is judged (the silence is artificial).
  if (dom_.heartbeats_paused()) {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stopped_) return;
    was_paused_ = true;
    arm_next();
    return;
  }

  std::uint64_t const now = now_ns();
  if (was_paused_) {
    // Heartbeats were suppressed for the pause's duration; that gap is not
    // evidence of failure. Restart every freshness clock.
    was_paused_ = false;
    refresh_all(now);
  }

  auto standing = [this](std::uint32_t loc) {
    return state_[loc].load(std::memory_order_relaxed);
  };
  auto clear_probing = [this](std::uint32_t loc) {
    for (std::size_t i = 0; i < n_; ++i) {
      probing_[loc * n_ + i] = 0;
      probing_[i * n_ + loc] = 0;
    }
  };

  // Full heartbeat mesh among non-dead localities. The frames ride the
  // fabric and its fault plane, so a fail-stopped/hung victim goes silent
  // without the detector being told anything out of band.
  for (std::uint32_t src = 0; src < n_; ++src) {
    if (standing(src) == member_state::dead) continue;
    for (std::uint32_t dst = 0; dst < n_; ++dst) {
      if (dst == src || standing(dst) == member_state::dead) continue;
      dom_.send_heartbeat(src, dst);
    }
  }

  // Fold out-of-band confirms (tests calling confirm_failure directly)
  // first so standing never disagrees with membership, and collect the
  // live view everything below judges against.
  std::vector<std::uint32_t> live;
  live.reserve(n_);
  for (std::uint32_t loc = 0; loc < n_; ++loc) {
    if (standing(loc) == member_state::dead) continue;
    if (dom_.is_confirmed_dead(loc)) {
      gen_[loc].fetch_add(1, std::memory_order_acq_rel);
      state_[loc].store(member_state::dead, std::memory_order_relaxed);
      clear_probing(loc);
      membership_.reset_fence(loc);  // left the view; the fence is moot
      continue;
    }
    live.push_back(loc);
  }
  std::size_t const view_size = live.size();

  // Indirect-probe bookkeeping (SWIM): the moment an observer's silence on
  // a live peer crosses the *raw* suspect threshold, route k probes through
  // random third-party relays — once per silence episode. A probe answer
  // refreshes the observer's freshness cell through the normal transport
  // path; seeing the cell fresh again while a round was in flight means a
  // one-way or lossy link nearly escalated a healthy peer.
  std::size_t const k = cfg_.indirect_probes;
  for (std::uint32_t obs : live) {
    for (std::uint32_t peer : live) {
      if (peer == obs) continue;
      char& flight = probing_[obs * n_ + peer];
      std::uint64_t const s = silence(obs, peer, now);
      if (s < suspect_ns_) {
        if (flight != 0) {
          flight = 0;
          counters::builtin().membership_false_suspect_averted.add();
        }
        continue;
      }
      if (flight != 0 || k == 0 || view_size < 3) continue;
      flight = 1;
      std::vector<std::uint32_t> relays;
      relays.reserve(view_size - 2);
      for (std::uint32_t r : live)
        if (r != obs && r != peer) relays.push_back(r);
      for (std::size_t sent = 0; sent < k && !relays.empty(); ++sent) {
        std::size_t const pick = next_random() % relays.size();
        dom_.send_probe_request(obs, relays[pick], peer);
        relays[pick] = relays.back();
        relays.pop_back();
      }
    }
  }

  // Quorum/fencing pass: an observer is quorate while it can reach (self
  // plus peers heard within the suspect window) a strict majority of the
  // live view. Non-quorate observers fence themselves — their opinions are
  // ignored below and the domain's fencing gates refuse commits — until
  // heartbeats from a majority flow again (heal => unfence => rejoin).
  bool const qactive = membership_view::quorum_active(view_size);
  std::vector<char> quorate(n_, 0);
  for (std::uint32_t obs : live) {
    std::size_t reachable = 1;  // self
    for (std::uint32_t peer : live)
      if (peer != obs && silence(obs, peer, now) < suspect_ns_) ++reachable;
    bool const q = membership_view::majority(reachable, view_size);
    quorate[obs] = (!qactive || q) ? 1 : 0;
    membership_.set_fenced(obs, qactive && !q);
  }

  // Judge standing. With quorum active, the silence that drives the ladder
  // is the *worst* silence any quorate observer holds against the peer —
  // fenced minorities cannot evict anyone. In a view below quorum_min_view
  // it is the *best* silence across all live observers: a heartbeat
  // reaching anyone keeps the peer fresh.
  std::uint64_t const suspect_th = suspect_ns_ + probe_grace_ns_;
  std::uint64_t const confirm_th = confirm_ns_ + probe_grace_ns_;
  auto mark_suspect = [this](std::uint32_t loc) {
    std::uint64_t const g =
        gen_[loc].fetch_add(1, std::memory_order_acq_rel) + 1;
    state_[loc].store(member_state::suspect, std::memory_order_release);
    std::vector<std::function<void(std::uint32_t)>> cbs;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      cbs = suspect_cbs_;
    }
    // Revive-during-suspect race: notify_restart may have run between the
    // store above and here. The generation moved on in that case — firing
    // the stale suspect now would break the monotone ladder the new
    // membership epoch starts from, so drop it.
    if (gen_[loc].load(std::memory_order_acquire) != g ||
        state_[loc].load(std::memory_order_acquire) != member_state::suspect)
      return;
    counters::builtin().resilience_suspects.add();
    for (auto& cb : cbs) cb(loc);
  };
  for (std::uint32_t loc : live) {
    std::uint64_t judged = 0;
    if (qactive) {
      for (std::uint32_t obs : live) {
        if (obs == loc || quorate[obs] == 0) continue;
        judged = std::max(judged, silence(obs, loc, now));
      }
    } else {
      judged = ~std::uint64_t{0};
      for (std::uint32_t obs : live)
        if (obs != loc) judged = std::min(judged, silence(obs, loc, now));
      if (judged == ~std::uint64_t{0}) judged = 0;  // no other observer
    }
    if (judged >= confirm_th && view_size >= 2) {
      // Escalation is monotone: even when one (delayed) tick crosses both
      // thresholds at once, the member passes through `suspect` first, so
      // observers always see the full alive -> suspect -> dead ladder and
      // the suspect counter/hooks never undercount a real failure.
      if (standing(loc) == member_state::alive) mark_suspect(loc);
      gen_[loc].fetch_add(1, std::memory_order_acq_rel);
      state_[loc].store(member_state::dead, std::memory_order_relaxed);
      clear_probing(loc);
      membership_.reset_fence(loc);
      dom_.confirm_failure(loc);
    } else if (judged >= suspect_th) {
      if (standing(loc) == member_state::alive) mark_suspect(loc);
    } else if (standing(loc) == member_state::suspect) {
      // Heartbeats resumed in time.
      gen_[loc].fetch_add(1, std::memory_order_acq_rel);
      state_[loc].store(member_state::alive, std::memory_order_relaxed);
    }
  }

  std::lock_guard<std::mutex> lk(mutex_);
  if (stopped_) return;
  arm_next();
}

member_state failure_detector::state_of(std::uint32_t loc) const {
  // Dead flags are authoritative: membership transitions must be visible
  // immediately, not only after the next tick folds them in.
  if (dom_.is_confirmed_dead(loc)) return member_state::dead;
  return state_[loc].load(std::memory_order_acquire);
}

std::uint64_t failure_detector::state_generation(std::uint32_t loc) const {
  PX_ASSERT(loc < n_);
  return gen_[loc].load(std::memory_order_acquire);
}

void failure_detector::on_suspect(std::function<void(std::uint32_t)> fn) {
  std::lock_guard<std::mutex> guard(mutex_);
  suspect_cbs_.push_back(std::move(fn));
}

void failure_detector::heard_from(std::uint32_t src, std::uint32_t observer) {
  if (src < n_ && observer < n_)
    heard_[observer * n_ + src].store(now_ns(), std::memory_order_relaxed);
}

void failure_detector::notify_confirmed(std::uint32_t loc) {
  if (loc >= n_) return;
  gen_[loc].fetch_add(1, std::memory_order_acq_rel);
  state_[loc].store(member_state::dead, std::memory_order_release);
}

void failure_detector::notify_restart(std::uint32_t loc) {
  if (loc >= n_) return;
  // The rejoiner starts with a clean slate in *both* directions: nobody
  // holds stale silence against it and it holds none against the view it
  // is adopting.
  std::uint64_t const now = now_ns();
  for (std::size_t i = 0; i < n_; ++i) {
    heard_[loc * n_ + i].store(now, std::memory_order_relaxed);
    heard_[i * n_ + loc].store(now, std::memory_order_relaxed);
  }
  gen_[loc].fetch_add(1, std::memory_order_acq_rel);
  state_[loc].store(member_state::alive, std::memory_order_release);
}

}  // namespace px::dist

#include "px/net/fault_plane.hpp"

#include "px/support/assert.hpp"

namespace px::net {

fault_plane::fault_plane(fault_config cfg) : cfg_(cfg) {
  auto in_unit = [](double p) { return p >= 0.0 && p <= 1.0; };
  PX_ASSERT_MSG(in_unit(cfg.drop) && in_unit(cfg.duplicate) &&
                    in_unit(cfg.reorder) && in_unit(cfg.extra_delay),
                "fault probabilities must lie in [0, 1]");
  PX_ASSERT_MSG(
      cfg.drop + cfg.duplicate + cfg.reorder + cfg.extra_delay <= 1.0 + 1e-12,
      "fault probabilities are mutually exclusive and must sum to <= 1");
  PX_ASSERT_MSG(cfg.reorder_hold_us >= 0.0 && cfg.extra_delay_us >= 0.0,
                "fault holds must be non-negative");
}

fault_decision fault_plane::sample(std::uint32_t src, std::uint32_t dst) {
  fault_decision d;

  // Locality faults first: a frame touching a fail-stopped or hung
  // locality never reaches the link-fault lottery.
  if (locality_faults_.load(std::memory_order_acquire)) {
    std::lock_guard<spinlock> guard(lock_);
    for (std::uint32_t end : {src, dst}) {
      auto it = loc_state_.find(end);
      if (it == loc_state_.end()) continue;
      switch (it->second.state) {
        case locality_health::dead:
        case locality_health::hung:
          blackholed_.fetch_add(1, std::memory_order_relaxed);
          d.drop = true;
          d.blackholed = true;
          return d;
        case locality_health::slowed:
          d.delay_factor *= it->second.slow_factor;
          break;
        case locality_health::alive:
          break;
      }
    }
  }

  // Partitions second: an active partition blackholes the whole direction,
  // so a partitioned frame never reaches the link-fault lottery either.
  if (partitions_installed_.load(std::memory_order_acquire) != 0) {
    std::uint64_t const step = max_step_.load(std::memory_order_acquire);
    std::lock_guard<spinlock> guard(lock_);
    for (auto const& p : partitions_) {
      if (!p.blocks(src, dst, step)) continue;
      blackholed_.fetch_add(1, std::memory_order_relaxed);
      partition_drops_.fetch_add(1, std::memory_order_relaxed);
      d.drop = true;
      d.blackholed = true;
      return d;
    }
  }

  if (!enabled()) return d;
  sampled_.fetch_add(1, std::memory_order_relaxed);

  std::uint64_t const link =
      (static_cast<std::uint64_t>(src) << 32) | dst;
  double u;
  {
    std::lock_guard<spinlock> guard(lock_);
    auto it = streams_.find(link);
    if (it == streams_.end())
      it = streams_.emplace(link, xoshiro256ss(cfg_.seed ^ (link * 0x9e3779b97f4a7c15ull + 1))).first;
    u = it->second.uniform();
  }

  double edge = cfg_.drop;
  if (u < edge) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    d.drop = true;
    return d;
  }
  edge += cfg_.duplicate;
  if (u < edge) {
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    d.duplicate = true;
    return d;
  }
  edge += cfg_.reorder;
  if (u < edge) {
    reorders_.fetch_add(1, std::memory_order_relaxed);
    d.hold_ns = static_cast<std::uint64_t>(cfg_.reorder_hold_us * 1000.0);
    return d;
  }
  edge += cfg_.extra_delay;
  if (u < edge) {
    extra_delays_.fetch_add(1, std::memory_order_relaxed);
    d.hold_ns = static_cast<std::uint64_t>(cfg_.extra_delay_us * 1000.0);
    return d;
  }
  return d;
}

fault_stats fault_plane::stats() const noexcept {
  fault_stats s;
  s.drops = drops_.load(std::memory_order_relaxed);
  s.duplicates = duplicates_.load(std::memory_order_relaxed);
  s.reorders = reorders_.load(std::memory_order_relaxed);
  s.extra_delays = extra_delays_.load(std::memory_order_relaxed);
  s.sampled = sampled_.load(std::memory_order_relaxed);
  s.blackholed = blackholed_.load(std::memory_order_relaxed);
  s.locality_faults_triggered = triggered_.load(std::memory_order_relaxed);
  s.partition_drops = partition_drops_.load(std::memory_order_relaxed);
  s.partitions_triggered =
      partitions_triggered_.load(std::memory_order_relaxed);
  return s;
}

// ---- per-locality fault schedule ----------------------------------------

void fault_plane::set_health(std::uint32_t loc, locality_health h,
                             double factor) {
  {
    std::lock_guard<spinlock> guard(lock_);
    auto& st = loc_state_[loc];
    st.state = h;
    st.slow_factor = factor;
  }
  locality_faults_.store(true, std::memory_order_release);
}

void fault_plane::add_schedule(schedule s) {
  {
    std::lock_guard<spinlock> guard(lock_);
    schedules_.push_back(s);
  }
  pending_schedules_.fetch_add(1, std::memory_order_acq_rel);
  locality_faults_.store(true, std::memory_order_release);
  // Progress observed before the schedule was added counts: a schedule for
  // an already-passed threshold triggers on the next advance; trigger it
  // here so "schedule then advance nothing" still behaves sanely.
  advance_step(max_step_.load(std::memory_order_acquire));
}

void fault_plane::fail_stop_at_step(std::uint32_t loc, std::uint64_t step) {
  schedule s;
  s.loc = loc;
  s.target = locality_health::dead;
  s.at_step = step;
  add_schedule(s);
}

void fault_plane::fail_stop_at_modeled_ns(std::uint32_t loc,
                                          std::uint64_t modeled_ns) {
  schedule s;
  s.loc = loc;
  s.target = locality_health::dead;
  s.at_modeled_ns = modeled_ns;
  add_schedule(s);
}

void fault_plane::fail_stop_now(std::uint32_t loc) {
  set_health(loc, locality_health::dead, 1.0);
}

void fault_plane::hang_at_step(std::uint32_t loc, std::uint64_t step) {
  schedule s;
  s.loc = loc;
  s.target = locality_health::hung;
  s.at_step = step;
  add_schedule(s);
}

void fault_plane::hang_at_modeled_ns(std::uint32_t loc,
                                     std::uint64_t modeled_ns) {
  schedule s;
  s.loc = loc;
  s.target = locality_health::hung;
  s.at_modeled_ns = modeled_ns;
  add_schedule(s);
}

void fault_plane::hang_now(std::uint32_t loc) {
  set_health(loc, locality_health::hung, 1.0);
}

void fault_plane::slow_by(std::uint32_t loc, double factor) {
  PX_ASSERT_MSG(factor >= 1.0, "slow_by factor must be >= 1");
  set_health(loc, locality_health::slowed, factor);
}

void fault_plane::revive(std::uint32_t loc) {
  std::lock_guard<spinlock> guard(lock_);
  loc_state_.erase(loc);
  std::size_t discarded = 0;
  for (auto it = schedules_.begin(); it != schedules_.end();) {
    if (it->loc == loc) {
      it = schedules_.erase(it);
      ++discarded;
    } else {
      ++it;
    }
  }
  if (discarded != 0)
    pending_schedules_.fetch_sub(discarded, std::memory_order_acq_rel);
}

void fault_plane::check_schedules_locked(std::uint64_t step,
                                         std::uint64_t modeled_ns) {
  std::size_t fired = 0;
  for (auto it = schedules_.begin(); it != schedules_.end();) {
    bool const due = step >= it->at_step || modeled_ns >= it->at_modeled_ns;
    if (due) {
      auto& st = loc_state_[it->loc];
      st.state = it->target;
      st.slow_factor = 1.0;
      triggered_.fetch_add(1, std::memory_order_relaxed);
      it = schedules_.erase(it);
      ++fired;
    } else {
      ++it;
    }
  }
  // Partition activation and heal ride the same progress feeds.
  constexpr std::uint64_t never = ~std::uint64_t{0};
  for (auto it = partitions_.begin(); it != partitions_.end();) {
    if (!it->active &&
        (step >= it->at_step || modeled_ns >= it->at_modeled_ns)) {
      it->active = true;
      it->activated_step = step;
      it->at_step = never;
      it->at_modeled_ns = never;
      partitions_triggered_.fetch_add(1, std::memory_order_relaxed);
      ++fired;
    }
    if (it->active &&
        (step >= it->heal_at_step || modeled_ns >= it->heal_at_modeled_ns)) {
      ++fired;
      it = partitions_.erase(it);
      partitions_installed_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    ++it;
  }
  if (fired != 0)
    pending_schedules_.fetch_sub(fired, std::memory_order_acq_rel);
}

// ---- partition schedule --------------------------------------------------

std::uint64_t fault_plane::side_mask(std::vector<std::uint32_t> const& side) {
  std::uint64_t mask = 0;
  for (std::uint32_t loc : side) {
    PX_ASSERT_MSG(loc < 64, "partition sides address localities < 64");
    mask |= std::uint64_t{1} << loc;
  }
  return mask;
}

std::uint64_t fault_plane::add_partition(partition p) {
  constexpr std::uint64_t never = ~std::uint64_t{0};
  PX_ASSERT_MSG(p.mask_a != 0 && p.mask_b != 0,
                "a partition needs two non-empty sides");
  PX_ASSERT_MSG((p.mask_a & p.mask_b) == 0,
                "partition sides must be disjoint");
  std::uint64_t pending = 0;
  if (!p.active && (p.at_step != never || p.at_modeled_ns != never))
    pending += 1;
  std::uint64_t id;
  {
    std::lock_guard<spinlock> guard(lock_);
    id = next_partition_id_++;
    p.id = id;
    if (p.active) {
      p.activated_step = max_step_.load(std::memory_order_acquire);
      partitions_triggered_.fetch_add(1, std::memory_order_relaxed);
    }
    partitions_.push_back(p);
  }
  partitions_installed_.fetch_add(1, std::memory_order_acq_rel);
  if (pending != 0) {
    pending_schedules_.fetch_add(pending, std::memory_order_acq_rel);
    // Same already-passed-threshold semantics as locality schedules.
    advance_step(max_step_.load(std::memory_order_acquire));
  }
  return id;
}

std::uint64_t fault_plane::partition_now(partition_spec spec) {
  partition p;
  p.mask_a = side_mask(spec.side_a);
  p.mask_b = side_mask(spec.side_b);
  p.symmetric = spec.symmetric;
  p.flap_period_steps = spec.flap_period_steps;
  p.active = true;
  return add_partition(p);
}

std::uint64_t fault_plane::partition_at_step(partition_spec spec,
                                             std::uint64_t step) {
  partition p;
  p.mask_a = side_mask(spec.side_a);
  p.mask_b = side_mask(spec.side_b);
  p.symmetric = spec.symmetric;
  p.flap_period_steps = spec.flap_period_steps;
  p.at_step = step;
  return add_partition(p);
}

std::uint64_t fault_plane::partition_at_modeled_ns(partition_spec spec,
                                                   std::uint64_t modeled_ns) {
  partition p;
  p.mask_a = side_mask(spec.side_a);
  p.mask_b = side_mask(spec.side_b);
  p.symmetric = spec.symmetric;
  p.flap_period_steps = spec.flap_period_steps;
  p.at_modeled_ns = modeled_ns;
  return add_partition(p);
}

void fault_plane::heal_partition(std::uint64_t id) {
  constexpr std::uint64_t never = ~std::uint64_t{0};
  std::uint64_t pending = 0;
  {
    std::lock_guard<spinlock> guard(lock_);
    for (auto it = partitions_.begin(); it != partitions_.end(); ++it) {
      if (it->id != id) continue;
      if (!it->active && (it->at_step != never || it->at_modeled_ns != never))
        pending += 1;
      if (it->heal_at_step != never || it->heal_at_modeled_ns != never)
        pending += 1;
      partitions_.erase(it);
      partitions_installed_.fetch_sub(1, std::memory_order_acq_rel);
      break;
    }
  }
  if (pending != 0)
    pending_schedules_.fetch_sub(pending, std::memory_order_acq_rel);
}

void fault_plane::heal_partition_at_step(std::uint64_t id,
                                         std::uint64_t step) {
  bool found = false;
  {
    std::lock_guard<spinlock> guard(lock_);
    for (auto& p : partitions_) {
      if (p.id != id) continue;
      PX_ASSERT_MSG(p.heal_at_step == ~std::uint64_t{0} &&
                        p.heal_at_modeled_ns == ~std::uint64_t{0},
                    "partition already has a heal schedule");
      p.heal_at_step = step;
      found = true;
      break;
    }
  }
  if (!found) return;
  pending_schedules_.fetch_add(1, std::memory_order_acq_rel);
  advance_step(max_step_.load(std::memory_order_acquire));
}

void fault_plane::heal_partition_at_modeled_ns(std::uint64_t id,
                                               std::uint64_t modeled_ns) {
  bool found = false;
  {
    std::lock_guard<spinlock> guard(lock_);
    for (auto& p : partitions_) {
      if (p.id != id) continue;
      PX_ASSERT_MSG(p.heal_at_step == ~std::uint64_t{0} &&
                        p.heal_at_modeled_ns == ~std::uint64_t{0},
                    "partition already has a heal schedule");
      p.heal_at_modeled_ns = modeled_ns;
      found = true;
      break;
    }
  }
  if (!found) return;
  pending_schedules_.fetch_add(1, std::memory_order_acq_rel);
  advance_modeled_ns(max_modeled_ns_.load(std::memory_order_acquire));
}

void fault_plane::heal_all_partitions() {
  constexpr std::uint64_t never = ~std::uint64_t{0};
  std::uint64_t pending = 0;
  std::size_t healed = 0;
  {
    std::lock_guard<spinlock> guard(lock_);
    for (auto const& p : partitions_) {
      if (!p.active && (p.at_step != never || p.at_modeled_ns != never))
        pending += 1;
      if (p.heal_at_step != never || p.heal_at_modeled_ns != never)
        pending += 1;
    }
    healed = partitions_.size();
    partitions_.clear();
  }
  if (healed != 0)
    partitions_installed_.fetch_sub(healed, std::memory_order_acq_rel);
  if (pending != 0)
    pending_schedules_.fetch_sub(pending, std::memory_order_acq_rel);
}

bool fault_plane::partitioned(std::uint32_t src, std::uint32_t dst) const {
  if (partitions_installed_.load(std::memory_order_acquire) == 0)
    return false;
  std::uint64_t const step = max_step_.load(std::memory_order_acquire);
  std::lock_guard<spinlock> guard(lock_);
  for (auto const& p : partitions_)
    if (p.blocks(src, dst, step)) return true;
  return false;
}

std::size_t fault_plane::active_partitions() const {
  if (partitions_installed_.load(std::memory_order_acquire) == 0) return 0;
  std::lock_guard<spinlock> guard(lock_);
  std::size_t n = 0;
  for (auto const& p : partitions_)
    if (p.active) ++n;
  return n;
}

void fault_plane::advance_step(std::uint64_t step) {
  std::uint64_t prev = max_step_.load(std::memory_order_relaxed);
  while (step > prev &&
         !max_step_.compare_exchange_weak(prev, step,
                                          std::memory_order_acq_rel)) {
  }
  if (pending_schedules_.load(std::memory_order_acquire) == 0) return;
  std::lock_guard<spinlock> guard(lock_);
  check_schedules_locked(max_step_.load(std::memory_order_acquire),
                         max_modeled_ns_.load(std::memory_order_acquire));
}

void fault_plane::advance_modeled_ns(std::uint64_t total_modeled_ns) {
  std::uint64_t prev = max_modeled_ns_.load(std::memory_order_relaxed);
  while (total_modeled_ns > prev &&
         !max_modeled_ns_.compare_exchange_weak(prev, total_modeled_ns,
                                                std::memory_order_acq_rel)) {
  }
  if (pending_schedules_.load(std::memory_order_acquire) == 0) return;
  std::lock_guard<spinlock> guard(lock_);
  check_schedules_locked(max_step_.load(std::memory_order_acquire),
                         max_modeled_ns_.load(std::memory_order_acquire));
}

locality_health fault_plane::health(std::uint32_t loc) const {
  if (!locality_faults_.load(std::memory_order_acquire))
    return locality_health::alive;
  std::lock_guard<spinlock> guard(lock_);
  auto it = loc_state_.find(loc);
  return it == loc_state_.end() ? locality_health::alive : it->second.state;
}

}  // namespace px::net

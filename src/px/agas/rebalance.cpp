#include "px/agas/rebalance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "px/dist/distributed_domain.hpp"
#include "px/dist/failure_detector.hpp"

namespace px::agas {

namespace {

// Load multiplier for a degraded home (detector `suspect`, fault-plane
// `slowed`) — work there runs this many times slower, so the planner
// evacuates it first and never targets it.
constexpr double degraded_penalty = 4.0;

}  // namespace

double load_imbalance(std::vector<double> const& loads) {
  double sum = 0.0, max = 0.0;
  std::size_t n = 0;
  for (double l : loads) {
    if (l < 0.0) continue;  // dead: not part of the balance
    sum += l;
    max = std::max(max, l);
    ++n;
  }
  if (n == 0 || sum <= 0.0) return 1.0;
  return max / (sum / static_cast<double>(n));
}

std::vector<planned_move> plan_moves(std::vector<double> loads,
                                     std::vector<partition_load> parts,
                                     rebalance_config const& cfg) {
  std::vector<planned_move> moves;
  if (!cfg.enabled || loads.empty()) return moves;
  // Determinism: the greedy scan below breaks weight ties by position, so
  // fix the partition order up front regardless of caller order.
  std::sort(parts.begin(), parts.end(),
            [](partition_load const& a, partition_load const& b) {
              return a.key < b.key;
            });
  auto pick_extreme = [&loads](bool hottest) -> std::size_t {
    std::size_t best = loads.size();
    for (std::size_t i = 0; i < loads.size(); ++i) {
      if (loads[i] < 0.0) continue;
      if (best == loads.size() || (hottest ? loads[i] > loads[best]
                                           : loads[i] < loads[best]))
        best = i;
    }
    return best;
  };
  while (moves.size() < cfg.max_moves_per_pass) {
    if (load_imbalance(loads) <= cfg.imbalance_trigger) break;
    std::size_t const hot = pick_extreme(true);
    std::size_t const cold = pick_extreme(false);
    if (hot >= loads.size() || cold >= loads.size() || hot == cold) break;
    // Ideal transfer halves the gap; pick the hot-resident partition whose
    // weight lands closest to it without overshooting into a reversal
    // (cold + w must stay below hot, or the move made nothing better).
    double const gap = loads[hot] - loads[cold];
    double const ideal = gap / 2.0;
    std::size_t best = parts.size();
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      partition_load const& p = parts[i];
      if (p.home != static_cast<std::uint32_t>(hot)) continue;
      if (p.weight < cfg.min_move_weight || p.weight <= 0.0) continue;
      if (p.weight >= gap) continue;  // would just swap hot and cold
      double const dist = std::abs(p.weight - ideal);
      if (dist < best_dist) {
        best_dist = dist;
        best = i;
      }
    }
    if (best == parts.size()) break;  // hot locality has nothing movable
    partition_load& p = parts[best];
    moves.push_back({p.key, p.home, static_cast<std::uint32_t>(cold),
                     p.weight});
    loads[hot] -= p.weight;
    loads[cold] += p.weight;
    p.home = static_cast<std::uint32_t>(cold);
  }
  return moves;
}

rebalancer::rebalancer(dist::distributed_domain& dom, rebalance_config cfg,
                       mover_fn mover)
    : dom_(dom), cfg_(cfg), mover_(std::move(mover)) {}

void rebalancer::add_partition(std::uint64_t key, gid g, std::uint32_t home,
                               double weight) {
  std::lock_guard<spinlock> lk(lock_);
  auto it = std::lower_bound(
      parts_.begin(), parts_.end(), key,
      [](auto const& a, std::uint64_t k) { return a.first < k; });
  if (it != parts_.end() && it->first == key)
    it->second = part{g, home, weight};
  else
    parts_.insert(it, {key, part{g, home, weight}});
}

void rebalancer::remove_partition(std::uint64_t key) {
  std::lock_guard<spinlock> lk(lock_);
  auto it = std::lower_bound(
      parts_.begin(), parts_.end(), key,
      [](auto const& a, std::uint64_t k) { return a.first < k; });
  if (it != parts_.end() && it->first == key) parts_.erase(it);
}

std::optional<std::uint32_t> rebalancer::home_of(std::uint64_t key) const {
  std::lock_guard<spinlock> lk(lock_);
  auto it = std::lower_bound(
      parts_.begin(), parts_.end(), key,
      [](auto const& a, std::uint64_t k) { return a.first < k; });
  if (it != parts_.end() && it->first == key) return it->second.home;
  return std::nullopt;
}

std::vector<double> rebalancer::loads() const {
  std::vector<double> base(dom_.size(), 0.0);
  {
    std::lock_guard<spinlock> lk(lock_);
    for (auto const& [key, p] : parts_)
      if (p.home < base.size()) base[p.home] += p.weight;
  }
  auto* det = dom_.detector();
  auto& faults = dom_.fabric().faults();
  for (std::size_t i = 0; i < base.size(); ++i) {
    auto const loc = static_cast<std::uint32_t>(i);
    auto const h = faults.health(loc);
    bool const dead = h == net::locality_health::dead ||
                      h == net::locality_health::hung ||
                      (det && det->state_of(loc) ==
                                  dist::member_state::dead);
    if (dead) {
      base[i] = -1.0;  // ineligible: neither source nor target
      continue;
    }
    bool const degraded =
        h == net::locality_health::slowed ||
        (det && det->state_of(loc) == dist::member_state::suspect);
    // Degraded localities do the same work slower, so their effective load
    // is scaled up — the planner drains them and avoids placing onto them.
    if (degraded) base[i] *= degraded_penalty;
  }
  return base;
}

rebalancer::pass_report rebalancer::step() {
  pass_report rep;
  if (!cfg_.enabled) return rep;
  std::vector<double> ls = loads();
  rep.imbalance_before = load_imbalance(ls);
  std::vector<partition_load> parts;
  {
    std::lock_guard<spinlock> lk(lock_);
    parts.reserve(parts_.size());
    for (auto const& [key, p] : parts_)
      parts.push_back({key, p.home, p.weight});
  }
  auto moves = plan_moves(std::move(ls), std::move(parts), cfg_);
  rep.planned = moves.size();
  for (planned_move const& m : moves) {
    // Split-brain fence: a move touching a fenced (minority-partition)
    // endpoint must not execute — the majority may be rehoming the same
    // partitions. Count the refusal and leave the move for a post-heal
    // pass; migrate<T> would refuse anyway, but skipping here avoids even
    // starting the transaction.
    if (dom_.is_fenced(m.from) || dom_.is_fenced(m.to)) {
      (void)dom_.membership().refusal(dom_.is_fenced(m.from) ? m.from : m.to);
      ++rep.fenced;
      continue;
    }
    gid g = invalid_gid;
    {
      std::lock_guard<spinlock> lk(lock_);
      auto it = std::lower_bound(
          parts_.begin(), parts_.end(), m.key,
          [](auto const& a, std::uint64_t k) { return a.first < k; });
      if (it == parts_.end() || it->first != m.key) continue;
      g = it->second.g;
    }
    bool moved = false;
    try {
      gid const resident = mover_(g, m.from, m.to).get();
      moved = true;
      std::lock_guard<spinlock> lk(lock_);
      auto it = std::lower_bound(
          parts_.begin(), parts_.end(), m.key,
          [](auto const& a, std::uint64_t k) { return a.first < k; });
      if (it != parts_.end() && it->first == m.key) {
        it->second.g = resident;
        it->second.home = m.to;
      }
    } catch (...) {
      // The migration layer rolled the departure back; the partition is
      // still at m.from and a later pass will retry. Nothing to unwind.
    }
    if (moved) {
      ++rep.moved;
      ++total_moves_;
    } else {
      ++rep.failed;
    }
  }
  rep.imbalance_after = load_imbalance(loads());
  return rep;
}

}  // namespace px::agas

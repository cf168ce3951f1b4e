// px/dist/membership.hpp
// Quorum membership for the virtual cluster (docs/ARCHITECTURE.md §4.5).
//
// The failure detector's heartbeat mesh gives every locality an *opinion*
// about every peer; under a network partition those opinions diverge — both
// sides see the other silent, and with independent confirms both sides
// would declare the other dead, advance membership epochs divergently, and
// keep committing migrations and checkpoints (split brain). The quorum rule
// closes that: a locality's opinion only carries weight while it can reach
// a strict majority of the last agreed membership view. Minority-side
// localities *fence* themselves instead — migration commits, checkpoint
// commits, rebalancer moves and new tenant admissions are refused with a
// typed px::dist::fenced_error until the partition heals, at which point
// the fenced side adopts the majority view and rejoins.
//
// Small-view carve-out: with fewer than three live members "majority"
// cannot distinguish a dead peer from a cut link (a 2-member view needs
// both members reachable to confirm anything, so nothing would ever be
// confirmed). Views smaller than quorum_min_view fall back to independent
// confirm (any live observer's silence judgment counts) and never fence.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace px::dist {

// Thrown (or delivered through futures) by operations a fenced locality
// refuses: migration commits, checkpoint commits, rebalancer moves, tenant
// admissions. The caller may park the work and retry after heal.
class fenced_error : public std::runtime_error {
 public:
  explicit fenced_error(std::uint32_t loc)
      : std::runtime_error("px::dist::fenced_error: locality " +
                           std::to_string(loc) +
                           " is fenced (cannot reach a membership quorum)"),
        loc_(loc) {}

  [[nodiscard]] std::uint32_t where() const noexcept { return loc_; }

 private:
  std::uint32_t loc_;
};

// The domain-wide membership ledger: per-locality fenced flags plus the
// /px/membership/* accounting. Reachability itself is judged by the
// failure detector (it owns the per-observer freshness matrix); this class
// holds the durable outcome so the fencing gates (migration, checkpoint,
// rebalance, serve admission) can consult it lock-free.
class membership_view {
 public:
  // Views with fewer live members than this never fence (see the
  // small-view carve-out above).
  static constexpr std::size_t quorum_min_view = 3;

  explicit membership_view(std::size_t num_localities);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  // True while `loc` is on the minority side of a partition.
  [[nodiscard]] bool fenced(std::uint32_t loc) const noexcept;
  // Any locality currently fenced (cheap: one counter read).
  [[nodiscard]] bool any_fenced() const noexcept {
    return fenced_count_.load(std::memory_order_acquire) != 0;
  }

  // Detector feed: `loc` can (or cannot) reach a majority of the view.
  // Fence/unfence transitions are counted; an unfence is a rejoin.
  void set_fenced(std::uint32_t loc, bool fenced);
  // Clears a fence without counting a rejoin — for a locality leaving the
  // view entirely (confirmed dead): its fence is moot, not healed.
  void reset_fence(std::uint32_t loc) noexcept;

  // The agreed view advanced (membership epoch bump: confirm or restart).
  void note_view_change();
  // A confirmed-dead member was re-admitted (restart_locality).
  void note_rejoin();
  // A fencing gate refused an operation; counts /px/membership/
  // fenced_refusals and returns a fenced_error to throw or wrap.
  [[nodiscard]] fenced_error refusal(std::uint32_t loc);

  // Quorum arithmetic: does `reachable` (peers heard recently, self
  // included) constitute a strict majority of a `view_size`-member view?
  [[nodiscard]] static bool majority(std::size_t reachable,
                                     std::size_t view_size) noexcept {
    return reachable * 2 > view_size;
  }
  // Quorum judgment active for a view of this size?
  [[nodiscard]] static bool quorum_active(std::size_t view_size) noexcept {
    return view_size >= quorum_min_view;
  }

 private:
  std::size_t n_;
  std::unique_ptr<std::atomic<bool>[]> fenced_;
  std::atomic<std::size_t> fenced_count_{0};
};

}  // namespace px::dist

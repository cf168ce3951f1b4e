#include "px/dist/membership.hpp"

#include "px/counters/counters.hpp"
#include "px/support/assert.hpp"

namespace px::dist {

membership_view::membership_view(std::size_t num_localities)
    : n_(num_localities) {
  fenced_ = std::make_unique<std::atomic<bool>[]>(n_);
  for (std::size_t i = 0; i < n_; ++i)
    fenced_[i].store(false, std::memory_order_relaxed);
}

bool membership_view::fenced(std::uint32_t loc) const noexcept {
  return loc < n_ && fenced_[loc].load(std::memory_order_acquire);
}

void membership_view::set_fenced(std::uint32_t loc, bool fenced) {
  PX_ASSERT(loc < n_);
  bool const was = fenced_[loc].exchange(fenced, std::memory_order_acq_rel);
  if (was == fenced) return;
  if (fenced) {
    fenced_count_.fetch_add(1, std::memory_order_acq_rel);
  } else {
    fenced_count_.fetch_sub(1, std::memory_order_acq_rel);
    // Returning to the majority side is a rejoin: the locality adopts the
    // agreed view it fell out of and resumes committing.
    counters::builtin().membership_rejoins.add();
  }
}

void membership_view::reset_fence(std::uint32_t loc) noexcept {
  if (loc >= n_) return;
  if (fenced_[loc].exchange(false, std::memory_order_acq_rel))
    fenced_count_.fetch_sub(1, std::memory_order_acq_rel);
}

void membership_view::note_view_change() {
  counters::builtin().membership_views.add();
}

void membership_view::note_rejoin() {
  counters::builtin().membership_rejoins.add();
}

fenced_error membership_view::refusal(std::uint32_t loc) {
  counters::builtin().membership_fenced_refusals.add();
  return fenced_error(loc);
}

}  // namespace px::dist

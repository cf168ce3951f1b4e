// px/stencil/step_mailbox.hpp
// Halo values keyed by time step. Halos do not arrive in step order: the
// distributed stencil partitions' halo puts (a cell in 1D, a row in 2D)
// are direct actions, run in delivery order on whichever thread delivers
// the parcel, which on a lossy fabric (held, reordered, retransmitted
// frames) is not send order. So the distributed solvers match halos by
// step.
//
// Allocation-free in steady state: buffered values and waiting getters
// live in two small vectors searched by step key, which keep their
// capacity, and a getter's slot lives on its own stack. A direct put runs
// on the sender's thread and a get on the receiver's, so a per-halo node
// would be allocated on one thread and freed on another.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "px/lcos/wait_support.hpp"
#include "px/support/spin.hpp"

namespace px::stencil {

template <typename T>
class step_mailbox {
 public:
  // The first put for a key wins; a second one before its get is dropped.
  void put(std::uint64_t key, T value) {
    lcos::detail::waiter woken;
    {
      std::lock_guard<px::spinlock> guard(lock_);
      if (poison_ != nullptr) return;  // dead mailbox swallows late halos
      auto w = std::find_if(waiting_.begin(), waiting_.end(),
                            [key](pending_get* g) { return g->key == key; });
      if (w == waiting_.end()) {
        if (find_value(key) == values_.end())
          values_.emplace_back(key, std::move(value));
        return;
      }
      (*w)->value.emplace(std::move(value));
      woken = (*w)->who;
      swap_remove(waiting_, w);
    }
    woken.notify();
  }

  // Suspends the calling task until the value for `key` has arrived.
  T get(std::uint64_t key) {
    std::unique_lock<px::spinlock> lock(lock_);
    if (poison_ != nullptr) std::rethrow_exception(poison_);
    if (auto it = find_value(key); it != values_.end()) {
      T v = std::move(it->second);
      swap_remove(values_, it);
      return v;
    }
    pending_get me(key);
    waiting_.push_back(&me);
    lcos::detail::wait_until(lock, me, [&me] {
      return me.value.has_value() || me.error != nullptr;
    });
    if (me.error != nullptr) std::rethrow_exception(me.error);
    return std::move(*me.value);
  }

  // Kills the mailbox: every task currently suspended in get() is failed
  // with `reason`, every later get() throws it, every later put() is
  // silently swallowed. Used on confirmed locality failure — the waiters
  // would otherwise block forever on a halo that can no longer arrive.
  // Idempotent (the first reason wins).
  void poison(std::exception_ptr reason) {
    std::vector<lcos::detail::waiter> victims;
    {
      std::lock_guard<px::spinlock> guard(lock_);
      if (poison_ != nullptr) return;
      poison_ = reason;
      victims.reserve(waiting_.size());
      for (pending_get* g : waiting_) {
        g->error = reason;
        victims.push_back(g->who);
      }
      waiting_.clear();
      values_.clear();
    }
    for (auto& v : victims) v.notify();
  }

  [[nodiscard]] bool poisoned() const {
    std::lock_guard<px::spinlock> guard(lock_);
    return poison_ != nullptr;
  }

  [[nodiscard]] std::size_t pending_values() const {
    std::lock_guard<px::spinlock> guard(lock_);
    return values_.size();
  }

  // Removes and returns every buffered (not yet consumed) value, sorted by
  // key for determinism. Migration support: a component being serialized
  // drains its mailboxes into the archive and re-puts the values on the
  // destination, so halos that landed before the pin travel with the
  // object instead of being lost.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, T>> drain_pending() {
    std::vector<std::pair<std::uint64_t, T>> out;
    {
      std::lock_guard<px::spinlock> guard(lock_);
      out.swap(values_);
    }
    std::sort(out.begin(), out.end(),
              [](auto const& a, auto const& b) { return a.first < b.first; });
    return out;
  }

 private:
  // A getter's wait, on its own stack. It is also the one-entry waiter list
  // wait_until registers the suspended task in.
  struct pending_get {
    explicit pending_get(std::uint64_t k) noexcept : key(k) {}
    std::uint64_t key;
    std::optional<T> value;
    std::exception_ptr error;
    lcos::detail::waiter who;
    void push_back(lcos::detail::waiter w) noexcept { who = w; }
  };

  // Order within the vectors carries no meaning: lookups are by key.
  template <typename V>
  static void swap_remove(V& v, typename V::iterator it) {
    if (it != v.end() - 1) *it = std::move(v.back());
    v.pop_back();
  }

  auto find_value(std::uint64_t key) {
    return std::find_if(values_.begin(), values_.end(),
                        [key](auto const& kv) { return kv.first == key; });
  }

  mutable px::spinlock lock_;
  std::vector<std::pair<std::uint64_t, T>> values_;
  std::vector<pending_get*> waiting_;
  std::exception_ptr poison_;
};

}  // namespace px::stencil

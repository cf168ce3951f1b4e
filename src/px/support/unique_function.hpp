// px/support/unique_function.hpp
// Move-only type-erased callable with small-buffer optimisation.
//
// Tasks capture promises and other move-only state, which std::function
// cannot hold. The SBO size is chosen so the common task payloads —
// stencil chunk continuations and futurized bodies, which capture up to
// eight pointer-sized values (two field pointers, grid geometry, a
// promise) — construct in place. At four pointers the six-to-
// eight-pointer captures each cost a heap round trip per spawn, the single
// largest term in the spawn-latency microbench; at eight the steady-state
// spawn path allocates nothing. The extra 32 bytes ride in the pooled task
// block (see task_pool.hpp), so the growth is free at runtime.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "px/support/assert.hpp"

namespace px {

template <typename Signature>
class unique_function;

template <typename R, typename... Args>
class unique_function<R(Args...)> {
  static constexpr std::size_t sbo_size = 8 * sizeof(void*);
  static constexpr std::size_t sbo_align = alignof(std::max_align_t);

  struct vtable {
    R (*invoke)(void*, Args&&...);
    void (*move_to)(void* src, void* dst) noexcept;
    void (*destroy)(void*) noexcept;
    bool heap;
  };

  template <typename F, bool Heap>
  static constexpr vtable vtable_for{
      [](void* obj, Args&&... args) -> R {
        F* f = Heap ? *static_cast<F**>(obj) : static_cast<F*>(obj);
        return (*f)(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) noexcept {
        if constexpr (Heap) {
          *static_cast<F**>(dst) = *static_cast<F**>(src);
          *static_cast<F**>(src) = nullptr;
        } else {
          ::new (dst) F(std::move(*static_cast<F*>(src)));
          static_cast<F*>(src)->~F();
        }
      },
      [](void* obj) noexcept {
        if constexpr (Heap) {
          delete *static_cast<F**>(obj);
        } else {
          static_cast<F*>(obj)->~F();
        }
      },
      Heap};

 public:
  unique_function() = default;
  unique_function(std::nullptr_t) noexcept {}

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, unique_function> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  unique_function(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= sbo_size && alignof(D) <= sbo_align &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (&storage_) D(std::forward<F>(f));
      vt_ = &vtable_for<D, false>;
    } else {
      *reinterpret_cast<D**>(&storage_) = new D(std::forward<F>(f));
      vt_ = &vtable_for<D, true>;
    }
  }

  unique_function(unique_function&& other) noexcept { move_from(other); }

  unique_function& operator=(unique_function&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  unique_function(unique_function const&) = delete;
  unique_function& operator=(unique_function const&) = delete;

  ~unique_function() { reset(); }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(&storage_);
      vt_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  R operator()(Args... args) {
    PX_ASSERT_MSG(vt_ != nullptr, "calling empty unique_function");
    return vt_->invoke(&storage_, std::forward<Args>(args)...);
  }

 private:
  void move_from(unique_function& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->move_to(&other.storage_, &storage_);
      other.vt_ = nullptr;
    }
  }

  alignas(sbo_align) std::byte storage_[sbo_size];
  vtable const* vt_ = nullptr;
};

}  // namespace px

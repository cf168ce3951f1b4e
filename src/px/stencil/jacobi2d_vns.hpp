// px/stencil/jacobi2d_vns.hpp
// The explicitly vectorized 2D Jacobi family of the paper's Fig 6–9:
// field2d<pack<T, W>> solves, parameterized over the px::simd::abi presets
// (neon128 / avx2 / sve512 / native) at run time. The generic 5-point
// kernel is jacobi2d_row_update — identical code for scalar and pack cells;
// this header adds the ABI selection layer (a runtime enum and a visitor
// that maps the enum onto the compile-time pack type) plus turnkey runners
// that start from a scalar field and return the final interior for
// validation.
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

#include "px/simd/abi.hpp"
#include "px/stencil/field2d.hpp"
#include "px/stencil/jacobi2d.hpp"

namespace px::stencil {

// Runtime name for a compile-time pack preset (Table I pipelines).
enum class vns_abi { neon128, avx2, sve512, native };

inline constexpr vns_abi vns_abi_presets[] = {
    vns_abi::neon128, vns_abi::avx2, vns_abi::sve512, vns_abi::native};

[[nodiscard]] char const* vns_abi_name(vns_abi a) noexcept;
[[nodiscard]] std::size_t vns_abi_vector_bits(vns_abi a) noexcept;

template <typename T>
[[nodiscard]] std::size_t vns_abi_lanes(vns_abi a) noexcept {
  return vns_abi_vector_bits(a) / (8 * sizeof(T));
}

// Maps the runtime preset onto the compile-time pack type:
// fn(std::type_identity<pack<T, W>>{}).
template <typename T, typename Fn>
decltype(auto) with_vns_pack(vns_abi a, Fn&& fn) {
  switch (a) {
    case vns_abi::neon128:
      return fn(std::type_identity<simd::abi::neon128<T>>{});
    case vns_abi::avx2:
      return fn(std::type_identity<simd::abi::avx2<T>>{});
    case vns_abi::sve512:
      return fn(std::type_identity<simd::abi::sve512<T>>{});
    case vns_abi::native:
    default:
      return fn(std::type_identity<simd::abi::native<T>>{});
  }
}

// A VNS solve's timing plus the final interior (row-major, nx*ny) decoded
// back to scalars for validation against the scalar solver / reference.
template <typename T>
struct vns_run_result {
  jacobi2d_result timing;
  std::vector<T> interior;
};

// Runs `steps` pack-cell Jacobi sweeps starting from the scalar field's
// state (interior + boundaries), with the pack width chosen by `abi`.
// Arbitrary nx is handled by field2d's padded VNS segments. Building the
// two fields and reading the answer back run row-parallel under `policy`
// too, so the whole call is timed end to end the way it is paid.
template <typename T, typename Policy>
vns_run_result<T> run_jacobi2d_vns(Policy const& policy, vns_abi abi,
                                   field2d<T> const& initial,
                                   std::size_t steps) {
  return with_vns_pack<T>(abi, [&](auto tag) {
    using P = typename decltype(tag)::type;
    field2d<P> u0(policy, initial);
    field2d<P> u1(policy, initial);
    vns_run_result<T> r;
    r.timing = run_jacobi2d(policy, u0, u1, steps);
    r.interior =
        interior_snapshot(policy, r.timing.final_index == 0 ? u0 : u1);
    return r;
  });
}

// Scalar-cell (compiler auto-vectorized) run with the same surface, for
// pack-vs-auto comparisons.
template <typename T, typename Policy>
vns_run_result<T> run_jacobi2d_auto(Policy const& policy,
                                    field2d<T> const& initial,
                                    std::size_t steps) {
  field2d<T> u0(policy, initial);
  field2d<T> u1(policy, initial);
  vns_run_result<T> r;
  r.timing = run_jacobi2d(policy, u0, u1, steps);
  r.interior = interior_snapshot(policy, r.timing.final_index == 0 ? u0 : u1);
  return r;
}

}  // namespace px::stencil

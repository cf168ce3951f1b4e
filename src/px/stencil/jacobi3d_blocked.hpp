// px/stencil/jacobi3d_blocked.hpp
// Cache-blocked 7-point 3D Jacobi, after "Performance Optimization of 3D
// Stencil Computation on ARM SVE": the sweep is tiled into (bx, by, bz)
// blocks so the working set of a block (three xy-planes plus halo rows)
// stays cache-resident, z-blocks are distributed over px tasks, and the
// inner x loop runs either as a plain scalar loop (compiler auto-vectorizes
// it) or as explicit native-width packs with a scalar tail.
//
// Alignment: field3d pads the x-pitch so each row *base* is 64B-aligned,
// but interior accesses start at offset 1 and the stencil reads x-1/x+1 —
// almost every pack access is misaligned. The pack path therefore uses
// load_unaligned/store_unaligned exclusively; on AVX-512/SVE the penalty
// within a cacheline-resident block is negligible, while an aligned move on
// these pointers would be UB (this is the field2d alignment audit applied
// forward).
//
// Block sizes come from jacobi3d_config (0 = auto). Jacobi has no
// intra-sweep dependencies, so results are bitwise identical for every
// block shape — pinned by tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "px/parallel/algorithms.hpp"
#include "px/simd/abi.hpp"
#include "px/simd/pack.hpp"
#include "px/stencil/field3d.hpp"
#include "px/support/timer.hpp"

namespace px::stencil {

struct jacobi3d_config {
  std::size_t steps = 1;
  // Block edge lengths in cells; 0 picks the default (whole x rows,
  // 16-row y panels, 4-plane z slabs — three double planes of a 64-wide
  // block fit comfortably in L1/L2).
  std::size_t block_x = 0;
  std::size_t block_y = 0;
  std::size_t block_z = 0;
  // false: scalar inner loop (auto-vectorized); true: explicit native packs.
  bool explicit_simd = false;
};

struct jacobi3d_result {
  double seconds = 0.0;
  double glups = 0.0;
  std::size_t steps = 0;
  std::size_t final_index = 0;  // which ping-pong buffer holds the result
};

// One block of the 7-point update, scalar inner loop. Ranges are storage
// coordinates: x in [x0, x1) within [1, nx+1), likewise y and z.
template <typename T>
void jacobi3d_block_scalar(field3d<T> const& curr, field3d<T>& next,
                           std::size_t x0, std::size_t x1, std::size_t y0,
                           std::size_t y1, std::size_t z0,
                           std::size_t z1) noexcept {
  T const sixth = T(1) / T(6);
  for (std::size_t z = z0; z < z1; ++z)
    for (std::size_t y = y0; y < y1; ++y) {
      T const* const mid = curr.row(y, z);
      T const* const ym = curr.row(y - 1, z);
      T const* const yp = curr.row(y + 1, z);
      T const* const zm = curr.row(y, z - 1);
      T const* const zp = curr.row(y, z + 1);
      T* const out = next.row(y, z);
#pragma GCC unroll 4
      for (std::size_t x = x0; x < x1; ++x)
        out[x] = ((mid[x - 1] + mid[x + 1]) + (ym[x] + yp[x]) +
                  (zm[x] + zp[x])) *
                 sixth;
    }
}

// Same block with an explicit pack inner loop (unaligned ops, scalar tail
// in the identical expression order — bitwise equal to the scalar block).
template <typename T, std::size_t W>
void jacobi3d_block_pack(field3d<T> const& curr, field3d<T>& next,
                         std::size_t x0, std::size_t x1, std::size_t y0,
                         std::size_t y1, std::size_t z0,
                         std::size_t z1) noexcept {
  using P = simd::pack<T, W>;
  T const sixth = T(1) / T(6);
  P const vsixth(sixth);
  for (std::size_t z = z0; z < z1; ++z)
    for (std::size_t y = y0; y < y1; ++y) {
      T const* const mid = curr.row(y, z);
      T const* const ym = curr.row(y - 1, z);
      T const* const yp = curr.row(y + 1, z);
      T const* const zm = curr.row(y, z - 1);
      T const* const zp = curr.row(y, z + 1);
      T* const out = next.row(y, z);
      std::size_t x = x0;
      for (; x + W <= x1; x += W) {
        P const xm = simd::load_unaligned<P>(mid + x - 1);
        P const xp = simd::load_unaligned<P>(mid + x + 1);
        P const a = simd::load_unaligned<P>(ym + x);
        P const b = simd::load_unaligned<P>(yp + x);
        P const c = simd::load_unaligned<P>(zm + x);
        P const d = simd::load_unaligned<P>(zp + x);
        simd::store_unaligned(out + x,
                              ((xm + xp) + (a + b) + (c + d)) * vsixth);
      }
      for (; x < x1; ++x)
        out[x] = ((mid[x - 1] + mid[x + 1]) + (ym[x] + yp[x]) +
                  (zm[x] + zp[x])) *
                 sixth;
    }
}

namespace detail {

[[nodiscard]] inline std::size_t resolve_block(std::size_t requested,
                                               std::size_t fallback,
                                               std::size_t extent) noexcept {
  std::size_t const b = requested ? requested : fallback;
  return std::min(std::max<std::size_t>(b, 1), extent);
}

}  // namespace detail

// Runs `steps` blocked sweeps over the ping-pong pair. z-blocks are
// parallelized with for_loop; each task walks its y/x tiles. Both fields
// must share shape and boundary state (u0 holds the initial interior).
template <typename T, typename Policy>
jacobi3d_result run_jacobi3d_blocked(Policy const& policy, field3d<T>& u0,
                                     field3d<T>& u1, jacobi3d_config cfg) {
  PX_ASSERT(u0.nx() == u1.nx() && u0.ny() == u1.ny() && u0.nz() == u1.nz());
  std::size_t const nx = u0.nx(), ny = u0.ny(), nz = u0.nz();
  std::size_t const bx = detail::resolve_block(cfg.block_x, nx, nx);
  std::size_t const by = detail::resolve_block(cfg.block_y, 16, ny);
  std::size_t const bz = detail::resolve_block(cfg.block_z, 4, nz);

  std::vector<std::pair<std::size_t, std::size_t>> zblocks;
  for (std::size_t z = 1; z <= nz; z += bz)
    zblocks.emplace_back(z, std::min(z + bz, nz + 1));

  field3d<T>* grids[2] = {&u0, &u1};
  high_resolution_timer timer;
  for (std::size_t t = 0; t < cfg.steps; ++t) {
    field3d<T> const& curr = *grids[t % 2];
    field3d<T>& next = *grids[(t + 1) % 2];
    parallel::for_loop(
        policy, std::size_t(0), zblocks.size(), [&](std::size_t i) {
          auto const [zb0, zb1] = zblocks[i];
          for (std::size_t y = 1; y <= ny; y += by) {
            std::size_t const yb1 = std::min(y + by, ny + 1);
            for (std::size_t x = 1; x <= nx; x += bx) {
              std::size_t const xb1 = std::min(x + bx, nx + 1);
              if (cfg.explicit_simd) {
                jacobi3d_block_pack<T, simd::abi::native<T>::width>(
                    curr, next, x, xb1, y, yb1, zb0, zb1);
              } else {
                jacobi3d_block_scalar(curr, next, x, xb1, y, yb1, zb0, zb1);
              }
            }
          }
        });
  }

  jacobi3d_result res;
  res.seconds = timer.elapsed();
  res.steps = cfg.steps;
  res.final_index = cfg.steps % 2;
  double const lups = static_cast<double>(nx) * static_cast<double>(ny) *
                      static_cast<double>(nz) *
                      static_cast<double>(cfg.steps);
  res.glups = res.seconds > 0.0 ? lups / res.seconds / 1e9 : 0.0;
  return res;
}

}  // namespace px::stencil

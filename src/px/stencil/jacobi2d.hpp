// px/stencil/jacobi2d.hpp
// The paper's 2D benchmark: a shared-memory Jacobi solver (Eq. 4, 5-point
// stencil) written once, generically, over scalar or pack cells — the
// structure of Listing 2. Rows are distributed over px tasks with
// hpx-style for_each; each row task performs the branch-free 5-point update
// and, for pack fields, shuffles its halos.
#pragma once

#include <utility>

#include "px/parallel/algorithms.hpp"
#include "px/stencil/field2d.hpp"
#include "px/support/timer.hpp"

namespace px::stencil {

// One row of the 5-point Jacobi update: next(s,y) from curr's neighbours.
// `y` is a storage row index in [1, ny]. Mirrors stencil_update of
// Listing 2 (including the trailing halo shuffle for SIMD containers).
template <typename Cell>
void jacobi2d_row_update(field2d<Cell> const& curr, field2d<Cell>& next,
                         std::size_t y) noexcept {
  using scalar = typename field2d<Cell>::scalar;
  std::size_t const cells = curr.cells();
  Cell const* const up = curr.row(y - 1);
  Cell const* const mid = curr.row(y);
  Cell const* const down = curr.row(y + 1);
  Cell* const out = next.row(y);
  scalar const quarter = scalar(0.25);
#pragma GCC unroll 4
  for (std::size_t s = 1; s <= cells; ++s) {
    out[s] = (mid[s - 1] + mid[s + 1] + up[s] + down[s]) * Cell(quarter);
  }
  next.refresh_row_halos(y);
}

struct jacobi2d_result {
  double seconds = 0.0;
  double glups = 0.0;  // giga lattice-site updates per second
  std::size_t steps = 0;
  // Which buffer of the ping-pong pair holds the final state (0 or 1).
  std::size_t final_index = 0;
};

// Runs `steps` Jacobi sweeps over the ping-pong pair U[0]/U[1] (U[0] holds
// the initial state; both fields must have identical shape and boundary
// values). Returns timing in the hpx::util::high_resolution_timer style of
// Listing 2.
template <typename Cell, typename Policy>
jacobi2d_result run_jacobi2d(Policy const& policy, field2d<Cell>& u0,
                             field2d<Cell>& u1, std::size_t steps) {
  PX_ASSERT(u0.nx() == u1.nx() && u0.ny() == u1.ny());
  field2d<Cell>* grids[2] = {&u0, &u1};
  std::size_t const ny = u0.ny();

  high_resolution_timer timer;
  for (std::size_t t = 0; t < steps; ++t) {
    field2d<Cell> const& curr = *grids[t % 2];
    field2d<Cell>& next = *grids[(t + 1) % 2];
    parallel::for_loop(policy, 1, ny + 1, [&curr, &next](std::size_t y) {
      jacobi2d_row_update(curr, next, y);
    });
  }
  jacobi2d_result res;
  res.seconds = timer.elapsed();
  res.steps = steps;
  res.final_index = steps % 2;
  double const lups = static_cast<double>(u0.nx()) *
                      static_cast<double>(ny) * static_cast<double>(steps);
  res.glups = res.seconds > 0.0 ? lups / res.seconds / 1e9 : 0.0;
  return res;
}

// Builds the benchmark's initial condition: zero interior with unit
// Dirichlet boundaries on all four edges (a well-conditioned Laplace
// problem whose solution converges toward 1 everywhere).
template <typename Cell>
void init_dirichlet_problem(field2d<Cell>& f) {
  using scalar = typename field2d<Cell>::scalar;
  for (std::size_t y = 0; y < f.ny(); ++y) {
    f.set_left_boundary(y, scalar(1));
    f.set_right_boundary(y, scalar(1));
  }
  for (std::size_t x = 0; x < f.nx(); ++x) {
    f.set_top_boundary(x, scalar(1));
    f.set_bottom_boundary(x, scalar(1));
  }
  f.refresh_all_halos();
}

}  // namespace px::stencil

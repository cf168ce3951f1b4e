// px/stencil/reference.hpp
// Plain serial reference implementations used to validate the px solvers,
// plus the analytic solution for the sine-mode heat problem.
#pragma once

#include <cstddef>
#include <vector>

namespace px::stencil {

// Serial Eq. 3 sweep over `steps`; boundaries are Dirichlet (carried over).
[[nodiscard]] std::vector<double> reference_heat1d(
    std::vector<double> initial, std::size_t steps, double k);

// Analytic solution of the discrete heat update for the half-sine initial
// condition u(x,0) = sin(pi x / (nx-1)): each step multiplies the mode by
// the discrete decay factor (1 - 2k(1 - cos(pi/(nx-1)))). This is exact for
// the *interior* of the discrete scheme with the sine mode pinned at zero
// boundaries.
[[nodiscard]] std::vector<double> analytic_heat1d_sine(std::size_t nx,
                                                       std::size_t steps,
                                                       double k);

// Serial 5-point Jacobi (Eq. 4) on a scalar grid with ghost ring. `u` has
// (ny+2) rows x (nx+2) columns, row-major; returns the grid after `steps`
// sweeps of the interior.
[[nodiscard]] std::vector<double> reference_jacobi2d(
    std::vector<double> u_with_ghosts, std::size_t nx, std::size_t ny,
    std::size_t steps);

// reference_jacobi2d on an ny x nx row-major interior with the Dirichlet
// value `boundary` on all four edges; returns the interior, same layout.
[[nodiscard]] std::vector<double> reference_jacobi2d_interior(
    std::vector<double> interior, std::size_t nx, std::size_t ny,
    std::size_t steps, double boundary);

// Serial 7-point Jacobi on a scalar 3D grid with ghost ring. `u` has
// (nz+2) x (ny+2) x (nx+2) scalars, x fastest, row-major; returns the grid
// after `steps` sweeps of the interior. Update order matches the blocked
// kernel:  ((xm+xp) + (ym+yp) + (zm+zp)) * (1/6).
[[nodiscard]] std::vector<double> reference_jacobi3d(
    std::vector<double> u_with_ghosts, std::size_t nx, std::size_t ny,
    std::size_t nz, std::size_t steps);

// Max-norm difference of two equally sized vectors.
[[nodiscard]] double max_abs_diff(std::vector<double> const& a,
                                  std::vector<double> const& b);

}  // namespace px::stencil

#include "px/stencil/reference.hpp"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "px/support/assert.hpp"

namespace px::stencil {

std::vector<double> reference_heat1d(std::vector<double> initial,
                                     std::size_t steps, double k) {
  std::size_t const nx = initial.size();
  PX_ASSERT(nx >= 3);
  std::vector<double> curr = std::move(initial);
  std::vector<double> next(nx);
  for (std::size_t t = 0; t < steps; ++t) {
    next[0] = curr[0];
    for (std::size_t x = 1; x + 1 < nx; ++x)
      next[x] = curr[x] + k * (curr[x - 1] - 2.0 * curr[x] + curr[x + 1]);
    next[nx - 1] = curr[nx - 1];
    curr.swap(next);
  }
  return curr;
}

std::vector<double> analytic_heat1d_sine(std::size_t nx, std::size_t steps,
                                         double k) {
  double const pi = std::acos(-1.0);
  double const theta = pi / static_cast<double>(nx - 1);
  double const decay = 1.0 - 2.0 * k * (1.0 - std::cos(theta));
  double const amplitude = std::pow(decay, static_cast<double>(steps));
  std::vector<double> u(nx);
  for (std::size_t x = 0; x < nx; ++x)
    u[x] = amplitude * std::sin(theta * static_cast<double>(x));
  return u;
}

std::vector<double> reference_jacobi2d(std::vector<double> u, std::size_t nx,
                                       std::size_t ny, std::size_t steps) {
  std::size_t const stride = nx + 2;
  PX_ASSERT(u.size() == stride * (ny + 2));
  std::vector<double> next = u;
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t y = 1; y <= ny; ++y)
      for (std::size_t x = 1; x <= nx; ++x)
        next[y * stride + x] = 0.25 * (u[y * stride + x - 1] +
                                       u[y * stride + x + 1] +
                                       u[(y - 1) * stride + x] +
                                       u[(y + 1) * stride + x]);
    u.swap(next);
  }
  return u;
}

std::vector<double> reference_jacobi2d_interior(std::vector<double> interior,
                                                std::size_t nx,
                                                std::size_t ny,
                                                std::size_t steps,
                                                double boundary) {
  std::size_t const stride = nx + 2;
  std::vector<double> u(stride * (ny + 2), boundary);
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      u[(y + 1) * stride + x + 1] = interior[y * nx + x];
  auto full = reference_jacobi2d(std::move(u), nx, ny, steps);
  std::vector<double> out(ny * nx);
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      out[y * nx + x] = full[(y + 1) * stride + x + 1];
  return out;
}

std::vector<double> reference_jacobi3d(std::vector<double> u, std::size_t nx,
                                       std::size_t ny, std::size_t nz,
                                       std::size_t steps) {
  std::size_t const sx = nx + 2;
  std::size_t const sy = (ny + 2) * sx;
  PX_ASSERT(u.size() == sy * (nz + 2));
  double const sixth = 1.0 / 6.0;
  std::vector<double> next = u;
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t z = 1; z <= nz; ++z)
      for (std::size_t y = 1; y <= ny; ++y)
        for (std::size_t x = 1; x <= nx; ++x) {
          std::size_t const i = z * sy + y * sx + x;
          next[i] = ((u[i - 1] + u[i + 1]) + (u[i - sx] + u[i + sx]) +
                     (u[i - sy] + u[i + sy])) *
                    sixth;
        }
    u.swap(next);
  }
  return u;
}

double max_abs_diff(std::vector<double> const& a,
                    std::vector<double> const& b) {
  PX_ASSERT(a.size() == b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

}  // namespace px::stencil

// px/stencil/jacobi2d_distributed.hpp
// Distributed 2D Jacobi (extension beyond the paper, which runs the 2D
// kernel shared-memory only): the grid is row-block decomposed over the
// localities of a virtual cluster; each step exchanges one halo *row* with
// each neighbour by parcel, overlapping the transfer with the block's
// interior sweep — the same latency-hiding structure as the 1D solver but
// with O(nx)-byte messages, exercising the fabric's bandwidth term.
#pragma once

#include <cstddef>
#include <vector>

#include "px/dist/distributed_domain.hpp"

namespace px::stencil {

struct dist_jacobi_config {
  std::size_t nx = 256;        // columns (row length)
  std::size_t ny_total = 256;  // global interior rows
  std::size_t steps = 50;
  double boundary = 1.0;       // Dirichlet value on all four edges
  // Run the block kernels with explicit VNS packs (native width) instead
  // of the compiler-auto-vectorized scalar path, at any nx (rows that are
  // not a lane multiple use padded VNS segments).
  bool use_simd = false;
};

struct dist_jacobi_result {
  double seconds = 0.0;
  double glups = 0.0;
  std::vector<double> values;  // gathered ny_total x nx interior, row-major
  std::uint64_t halo_messages = 0;
  std::uint64_t halo_bytes = 0;
};

// Runs the solver across every locality of `dom`. `initial` holds the
// interior (ny_total x nx, row-major); the boundary ring is `boundary`.
[[nodiscard]] dist_jacobi_result run_distributed_jacobi2d(
    px::dist::distributed_domain& dom, std::vector<double> const& initial,
    dist_jacobi_config cfg);

// Serial reference with the same boundary convention, for validation.
[[nodiscard]] std::vector<double> reference_jacobi2d_interior(
    std::vector<double> interior, std::size_t nx, std::size_t ny,
    std::size_t steps, double boundary);

}  // namespace px::stencil

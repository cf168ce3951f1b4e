// px/stencil/jacobi2d_distributed.hpp
// Distributed 2D Jacobi (extension beyond the paper, which runs the 2D
// kernel shared-memory only): the 2D instance of the shared partition
// component and driver (distributed_stencil.hpp). A partition is a block
// of whole rows, a halo one row of nx doubles, so messages are O(nx)
// bytes and exercise the fabric's bandwidth term. Over-decomposition,
// rebalancing, checkpointing and kill recovery work as in the 1D solver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "px/stencil/distributed_stencil.hpp"

namespace px::stencil {

struct dist_jacobi_config : dist_stencil_config {
  std::size_t nx = 256;  // columns (row length)
  double boundary = 1.0;  // Dirichlet value on all four edges
  // Run the block kernels with explicit VNS packs (native width) instead
  // of the compiler-auto-vectorized scalar path, at any nx (rows that are
  // not a lane multiple use padded VNS segments).
  bool use_simd = false;
};

struct dist_jacobi_result : dist_stencil_result {
  double glups = 0.0;
  std::uint64_t halo_bytes = 0;
};

// Runs the solver across every locality of `dom`. `initial` holds the
// interior, row-major with rows of nx (its size must be a multiple of nx;
// the row count follows from it); the boundary ring is `boundary`.
[[nodiscard]] dist_jacobi_result run_distributed_jacobi2d(
    px::dist::distributed_domain& dom, std::vector<double> const& initial,
    dist_jacobi_config cfg);

}  // namespace px::stencil

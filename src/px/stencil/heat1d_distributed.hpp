// px/stencil/heat1d_distributed.hpp
// The fully distributed 1D heat solver of §V-A: the 1D instance of the
// shared partition component and driver (distributed_stencil.hpp). A
// partition is a run of cells, a halo one cell; the interior update uses
// the same for_loop structure as the shared-memory solver.
#pragma once

#include <vector>

#include "px/stencil/distributed_stencil.hpp"

namespace px::stencil {

struct dist_heat_config : dist_stencil_config {
  double k = 0.25;  // Eq. 3 coefficient (alpha dt / dx^2)
};

struct dist_heat_result : dist_stencil_result {
  double points_per_second = 0.0;
};

// Runs the solver across every locality of `dom`. `initial` must have at
// least two cells per partition; boundaries are Dirichlet. Returns the
// gathered field. Surviving an injected locality fail-stop requires the
// domain's failure detector (domain_config::resilience); without a
// checkpoint_interval recovery replays from step 0. Unrecoverable failures
// surface as px::dist::locality_down.
[[nodiscard]] dist_heat_result run_distributed_heat1d(
    px::dist::distributed_domain& dom, std::vector<double> const& initial,
    dist_heat_config cfg);

}  // namespace px::stencil

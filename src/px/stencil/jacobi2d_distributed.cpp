#include "px/stencil/jacobi2d_distributed.hpp"

#include <memory>
#include <span>
#include <type_traits>

#include "px/parallel/algorithms.hpp"
#include "px/stencil/field2d.hpp"
#include "px/stencil/jacobi2d.hpp"
#include "px/stencil/reference.hpp"
#include "px/stencil/step_mailbox.hpp"
#include "px/support/timer.hpp"

namespace px::stencil {
namespace {

struct jacobi_block_state {
  step_mailbox<std::vector<double>> from_above;
  step_mailbox<std::vector<double>> from_below;
};

constexpr char const state_name[] = "px.stencil.jacobi2d.state";

std::shared_ptr<jacobi_block_state> resolve_jstate(
    px::dist::locality& here) {
  auto g = here.agas().resolve_name(state_name);
  PX_ASSERT_MSG(g.valid(), "jacobi2d state not prepared on this locality");
  auto state = here.agas().resolve<jacobi_block_state>(g);
  PX_ASSERT(state != nullptr);
  return state;
}

int jacobi_prepare(px::dist::locality& here) {
  auto g = here.agas().resolve_name(state_name);
  if (!g.valid()) {
    here.agas().register_name(state_name,
                              here.agas().bind(
                                  std::make_shared<jacobi_block_state>()));
  }
  return static_cast<int>(here.id());
}

void jacobi_halo_put(px::dist::locality& here, std::uint32_t step,
                     std::uint8_t from_above, std::vector<double> row) {
  auto state = resolve_jstate(here);
  if (from_above != 0)
    state->from_above.put(step, std::move(row));
  else
    state->from_below.put(step, std::move(row));
}

int jacobi_teardown(px::dist::locality& here) {
  auto g = here.agas().resolve_name(state_name);
  if (g.valid()) {
    here.agas().unbind(g);
    here.agas().unregister_name(state_name);
  }
  return 0;
}

struct jblock_args {
  std::uint64_t nx = 0;
  std::uint64_t steps = 0;
  std::uint8_t use_simd = 0;  // 1: VNS pack kernel inside each block
  double boundary = 1.0;
  std::vector<double> rows;  // local_ny x nx interior values

  template <typename Archive>
  void serialize(Archive& ar) {
    ar& nx& steps& use_simd& boundary& rows;
  }
};

// Interior row y (0-based) as the halo row a neighbour ingests.
template <typename Cell>
std::vector<double> extract_row(field2d<Cell> const& f, std::size_t y) {
  std::vector<double> row(f.nx());
  f.read_row(y + 1, row);
  return row;
}

// A block field holding the block's rows, with the global Dirichlet
// boundary on all four sides.
template <typename Cell>
field2d<Cell> load_block(jblock_args const& args, std::size_t local_ny) {
  std::span<double const> const rows(args.rows);
  std::vector<double> const edge(args.nx, args.boundary);
  field2d<Cell> f(args.nx, local_ny);
  for (std::size_t y = 0; y < local_ny + 2; ++y) {
    bool const ghost = y == 0 || y == local_ny + 1;
    f.write_row(y, ghost ? std::span<double const>(edge)
                         : rows.subspan((y - 1) * args.nx, args.nx));
    f.write_row_ghosts(y, ghost ? 0.0 : args.boundary,
                       ghost ? 0.0 : args.boundary);
  }
  return f;
}

// The block solver, generic over the cell type: `double` is the paper's
// scalar path; pack cells run the Virtual Node Scheme layout *inside* the
// distributed decomposition (SIMD + parcels combined).
template <typename Cell>
std::vector<double> jacobi_solve_block_impl(px::dist::locality& here,
                                            jblock_args const& args) {
  auto state = resolve_jstate(here);
  std::size_t const nloc = here.domain().size();
  std::uint32_t const my = here.id();
  bool const has_above = my > 0;
  bool const has_below = my + 1 < nloc;
  std::size_t const nx = args.nx;
  std::size_t const local_ny = args.rows.size() / nx;
  PX_ASSERT(local_ny >= 1 && args.rows.size() == local_ny * nx);

  static_assert(std::is_same_v<typename field2d<Cell>::scalar, double>);
  // Two ping-pong fields; outer-row ghosts carry either the global
  // Dirichlet boundary or the neighbour's halo row. u[1]'s interior is
  // overwritten by the first sweep.
  field2d<Cell> u[2] = {load_block<Cell>(args, local_ny),
                        load_block<Cell>(args, local_ny)};

  auto policy = execution::par;
  for (std::uint32_t t = 0; t < args.steps; ++t) {
    field2d<Cell>& curr = u[t % 2];
    field2d<Cell>& next = u[(t + 1) % 2];

    // 1. Ship edge rows (current values) to the neighbours.
    if (has_above)
      here.apply<&jacobi_halo_put>(my - 1, t, std::uint8_t{0},
                                   extract_row(curr, 0));
    if (has_below)
      here.apply<&jacobi_halo_put>(my + 1, t, std::uint8_t{1},
                                   extract_row(curr, local_ny - 1));

    // 2. Interior rows (storage rows 2..local_ny-1) need no remote data.
    if (local_ny > 2) {
      parallel::for_loop(policy, 2, local_ny, [&](std::size_t y) {
        jacobi2d_row_update(curr, next, y);
      });
    }

    // 3. Receive halos into the ghost rows, then update the edge rows.
    if (has_above) curr.write_row(0, state->from_above.get(t));
    if (has_below) curr.write_row(local_ny + 1, state->from_below.get(t));
    jacobi2d_row_update(curr, next, 1);  // first interior row
    if (local_ny > 1) jacobi2d_row_update(curr, next, local_ny);
  }

  return interior_snapshot(policy, u[args.steps % 2]);
}

// The parcel action: dispatches to the scalar or VNS-pack instantiation
// (any nx: rows that are not a lane multiple use padded VNS segments).
std::vector<double> jacobi_solve_block(px::dist::locality& here,
                                       jblock_args args) {
  if (args.use_simd != 0)
    return jacobi_solve_block_impl<px::simd::abi::native<double>>(here,
                                                                  args);
  return jacobi_solve_block_impl<double>(here, args);
}

}  // namespace

PX_REGISTER_ACTION(jacobi_prepare)
PX_REGISTER_ACTION(jacobi_halo_put)
PX_REGISTER_ACTION(jacobi_solve_block)
PX_REGISTER_ACTION(jacobi_teardown)

dist_jacobi_result run_distributed_jacobi2d(
    px::dist::distributed_domain& dom, std::vector<double> const& initial,
    dist_jacobi_config cfg) {
  std::size_t const nloc = dom.size();
  PX_ASSERT(initial.size() == cfg.nx * cfg.ny_total);
  PX_ASSERT(cfg.ny_total >= nloc);

  auto const msgs0 = dom.fabric().counters().messages.load();
  auto const bytes0 = dom.fabric().counters().bytes.load();

  auto result = dom.run([&](px::dist::locality& loc0) -> dist_jacobi_result {
    {
      std::vector<future<int>> ready;
      for (std::size_t l = 0; l < nloc; ++l)
        ready.push_back(
            loc0.call<&jacobi_prepare>(static_cast<std::uint32_t>(l)));
      for (auto& f : ready) f.get();
    }

    high_resolution_timer timer;
    std::vector<future<std::vector<double>>> blocks;
    std::size_t const base = cfg.ny_total / nloc;
    std::size_t const extra = cfg.ny_total % nloc;
    std::size_t row0 = 0;
    for (std::size_t l = 0; l < nloc; ++l) {
      std::size_t const rows = base + (l < extra ? 1 : 0);
      jblock_args args;
      args.nx = cfg.nx;
      args.steps = cfg.steps;
      args.use_simd = cfg.use_simd ? 1 : 0;
      args.boundary = cfg.boundary;
      args.rows.assign(
          initial.begin() + static_cast<std::ptrdiff_t>(row0 * cfg.nx),
          initial.begin() +
              static_cast<std::ptrdiff_t>((row0 + rows) * cfg.nx));
      blocks.push_back(loc0.call<&jacobi_solve_block>(
          static_cast<std::uint32_t>(l), std::move(args)));
      row0 += rows;
    }

    dist_jacobi_result res;
    res.values.reserve(cfg.ny_total * cfg.nx);
    for (auto& f : blocks) {
      auto block = f.get();
      res.values.insert(res.values.end(), block.begin(), block.end());
    }
    res.seconds = timer.elapsed();

    {
      std::vector<future<int>> done;
      for (std::size_t l = 0; l < nloc; ++l)
        done.push_back(
            loc0.call<&jacobi_teardown>(static_cast<std::uint32_t>(l)));
      for (auto& f : done) f.get();
    }
    return res;
  });

  double const lups = static_cast<double>(cfg.nx) *
                      static_cast<double>(cfg.ny_total) *
                      static_cast<double>(cfg.steps);
  result.glups = result.seconds > 0.0 ? lups / result.seconds / 1e9 : 0.0;
  result.halo_messages = dom.fabric().counters().messages.load() - msgs0;
  result.halo_bytes = dom.fabric().counters().bytes.load() - bytes0;
  return result;
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

}  // namespace px::stencil

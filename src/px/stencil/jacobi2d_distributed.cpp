// The 2D instance of the distributed stencil partition and driver
// (distributed_stencil_impl.hpp): run_distributed_jacobi2d.
#include "px/stencil/jacobi2d_distributed.hpp"

#include <span>
#include <type_traits>
#include <vector>

#include "px/parallel/algorithms.hpp"
#include "px/stencil/distributed_stencil_impl.hpp"
#include "px/stencil/field2d.hpp"
#include "px/stencil/jacobi2d.hpp"

namespace px::stencil {
namespace {

// 2D Jacobi: a block of whole rows; a halo is one row. `Cell` is double
// (the auto-vectorized path) or a native VNS pack, which runs the Virtual
// Node Scheme layout inside the distributed decomposition at any nx (rows
// that are not a lane multiple use padded VNS segments).
template <typename Cell>
struct jacobi_shape {
  static_assert(std::is_same_v<typename field2d<Cell>::scalar, double>);
  using halo = std::vector<double>;
  static constexpr std::size_t min_units = 1;

  std::uint64_t nx = 0;
  double boundary = 0.0;  // Dirichlet value on all four global edges
  std::vector<double> cells;  // the block's rows, row-major

  [[nodiscard]] std::size_t unit() const { return nx; }

  template <typename Archive>
  void serialize(Archive& ar) {
    ar& nx& boundary& cells;
  }

  // Two ping-pong block fields. Their outer-row ghosts carry the global
  // boundary or, refreshed every step, the neighbour's halo row; their
  // column ghosts carry the global boundary.
  class stepper {
   public:
    explicit stepper(jacobi_shape& s)
        : s_(s), ny_(s.cells.size() / s.nx), u_{load(), load()} {}

    [[nodiscard]] halo low_halo() const { return row(1); }
    [[nodiscard]] halo high_halo() const { return row(ny_); }

    // Storage rows 2..ny-1 need no remote data.
    void interior() {
      if (ny_ <= 2) return;
      parallel::for_loop(execution::par, 2, ny_, [this](std::size_t y) {
        jacobi2d_row_update(curr(), next(), y);
      });
    }

    // The edge rows, from the halos in the ghost rows. A one-row block
    // needs both halos, so its row waits for high_edge().
    void low_edge(halo const* low) {
      if (low != nullptr) curr().write_row(0, *low);
      if (ny_ > 1) jacobi2d_row_update(curr(), next(), 1);
    }
    void high_edge(halo const* high) {
      if (high != nullptr) curr().write_row(ny_ + 1, *high);
      jacobi2d_row_update(curr(), next(), ny_);
      cur_ ^= 1;
    }

    [[nodiscard]] std::vector<double> snapshot() const {
      return interior_snapshot(execution::par, u_[cur_]);
    }
    void finish() { s_.cells = snapshot(); }

   private:
    field2d<Cell> load() const {
      std::span<double const> const rows(s_.cells);
      std::vector<double> const edge(s_.nx, s_.boundary);
      field2d<Cell> f(s_.nx, ny_);
      for (std::size_t y = 0; y < ny_ + 2; ++y) {
        bool const ghost = y == 0 || y == ny_ + 1;
        f.write_row(y, ghost ? std::span<double const>(edge)
                             : rows.subspan((y - 1) * s_.nx, s_.nx));
        f.write_row_ghosts(y, ghost ? 0.0 : s_.boundary,
                           ghost ? 0.0 : s_.boundary);
      }
      return f;
    }

    [[nodiscard]] halo row(std::size_t y) const {
      halo r(s_.nx);
      u_[cur_].read_row(y, r);
      return r;
    }
    field2d<Cell>& curr() { return u_[cur_]; }
    field2d<Cell>& next() { return u_[cur_ ^ 1]; }

    jacobi_shape& s_;
    std::size_t ny_;
    field2d<Cell> u_[2];
    std::size_t cur_ = 0;  // which of u_ holds the current step
  };
};

using jacobi_scalar_shape = jacobi_shape<double>;
using jacobi_pack_shape = jacobi_shape<px::simd::abi::native<double>>;

}  // namespace

PX_STENCIL_REGISTER_SHAPE(jacobi_scalar_shape, jacobi)
PX_STENCIL_REGISTER_SHAPE(jacobi_pack_shape, jacobi_pack)
PX_STENCIL_REGISTER_CHECKPOINTS()

dist_jacobi_result run_distributed_jacobi2d(px::dist::distributed_domain& dom,
                                            std::vector<double> const& initial,
                                            dist_jacobi_config cfg) {
  auto const bytes_before = dom.fabric().counters().bytes.load();
  dist_jacobi_result out;
  if (cfg.use_simd)
    detail::run_partitioned(dom, initial, cfg,
                            jacobi_pack_shape{cfg.nx, cfg.boundary, {}}, out);
  else
    detail::run_partitioned(dom, initial, cfg,
                            jacobi_scalar_shape{cfg.nx, cfg.boundary, {}}, out);
  out.glups = out.seconds > 0.0 ? static_cast<double>(initial.size()) *
                                      static_cast<double>(cfg.steps) /
                                      out.seconds / 1e9
                                : 0.0;
  out.halo_bytes = dom.fabric().counters().bytes.load() - bytes_before;
  return out;
}

}  // namespace px::stencil

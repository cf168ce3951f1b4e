// The 1D instance of the distributed stencil partition and driver
// (distributed_stencil_impl.hpp): run_distributed_heat1d.
#include "px/stencil/heat1d_distributed.hpp"

#include <utility>
#include <vector>

#include "px/parallel/algorithms.hpp"
#include "px/stencil/distributed_stencil_impl.hpp"
#include "px/stencil/heat1d.hpp"

namespace px::stencil {
namespace {

using buffer = std::vector<double, aligned_allocator<double, 64>>;

// 1D heat: a run of cells; a halo is one cell.
struct heat_shape {
  using halo = double;
  static constexpr std::size_t min_units = 2;

  double k = 0.0;
  buffer cells;

  [[nodiscard]] std::size_t unit() const { return 1; }

  template <typename Archive>
  void serialize(Archive& ar) {
    ar& k& cells;
  }

  class stepper {
   public:
    explicit stepper(heat_shape& s) : s_(s), next_(s.cells.size(), 0.0) {
      PX_ASSERT(s.cells.size() >= 2);
    }
    [[nodiscard]] double low_halo() const { return s_.cells.front(); }
    [[nodiscard]] double high_halo() const { return s_.cells.back(); }

    // Cells [1, n-1) need no remote data.
    void interior() {
      buffer const& curr = s_.cells;
      buffer& next = next_;
      double const k = s_.k;
      parallel::for_loop(execution::par, 1, curr.size() - 1,
                         [&](std::size_t x) {
                           next[x] = heat_update(curr[x - 1], curr[x],
                                                 curr[x + 1], k);
                         });
    }

    // Edges: the neighbour's halo, or the global Dirichlet boundary.
    void low_edge(double const* low) {
      buffer const& curr = s_.cells;
      next_[0] =
          low != nullptr ? heat_update(*low, curr[0], curr[1], s_.k) : curr[0];
    }
    void high_edge(double const* high) {
      buffer const& curr = s_.cells;
      std::size_t const n = curr.size();
      next_[n - 1] = high != nullptr
                         ? heat_update(curr[n - 2], curr[n - 1], *high, s_.k)
                         : curr[n - 1];
      std::swap(s_.cells, next_);
    }

    [[nodiscard]] std::vector<double> snapshot() const {
      return {s_.cells.begin(), s_.cells.end()};
    }
    void finish() {}

   private:
    heat_shape& s_;
    buffer next_;
  };
};

}  // namespace

PX_STENCIL_REGISTER_SHAPE(heat_shape, heat)
PX_STENCIL_REGISTER_CHECKPOINTS()

std::vector<std::size_t> zipf_partition_sizes(std::size_t nx_total,
                                              std::size_t parts, double s) {
  return detail::zipf_split(nx_total, parts, s, 2);
}

dist_heat_result run_distributed_heat1d(px::dist::distributed_domain& dom,
                                        std::vector<double> const& initial,
                                        dist_heat_config cfg) {
  dist_heat_result out;
  detail::run_partitioned(dom, initial, cfg, heat_shape{cfg.k, {}}, out);
  out.points_per_second = out.seconds > 0.0
                              ? static_cast<double>(initial.size()) *
                                    static_cast<double>(cfg.steps) /
                                    out.seconds
                              : 0.0;
  return out;
}

}  // namespace px::stencil

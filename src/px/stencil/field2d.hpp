// px/stencil/field2d.hpp
// The Grid abstraction of the paper's Listing 2: a 2D field whose cell type
// is either a scalar (float/double — the compiler-auto-vectorized path) or
// a px::simd::pack (the explicitly vectorized path, stored in the Virtual
// Node Scheme layout).
//
// Storage layout per row: [ghost | interior cells | ghost], and one ghost
// row above and below. For scalar cells the ghosts are the Dirichlet
// boundary values themselves; for pack cells the ghosts are *halo packs*
// derived from the row's edge packs and the per-row boundary scalars via
// the VNS seam rotations — the halos the kernel "shuffles" after each
// update (Listing 2 line 18).
//
// With halos in place, the 5-point update is branch-free for both cell
// types:  next(s,y) = (c(s-1,y)+c(s+1,y)+c(s,y-1)+c(s,y+1)) * 0.25.
//
// Bulk setup and readback go a whole storage row at a time (read_row /
// write_row: a row copy for scalar cells, padded VNS encode/decode for
// packs). copy_problem and interior_snapshot run them over the rows with
// a caller's policy, and field2d(policy, src) builds a field in one such
// pass over storage that no earlier write has touched: the row fill is
// each page's first touch, in the for_loop a sweep runs (with a bound
// block_executor, each chunk on the worker that sweeps it).
#pragma once

#include <algorithm>
#include <cstddef>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "px/parallel/algorithms.hpp"
#include "px/simd/simd.hpp"
#include "px/support/aligned.hpp"
#include "px/support/assert.hpp"
#include "px/support/math.hpp"

namespace px::stencil {

namespace detail {

// field2d's allocator: 64-byte aligned, and an element made without a value
// (vector::resize) is default-initialized. For the trivially constructible
// scalar and pack cells that writes nothing, so a resized field's pages
// stay untouched until its row fill writes them.
template <typename T>
struct first_touch_allocator : aligned_allocator<T, 64> {
  template <typename U>
  struct rebind {
    using other = first_touch_allocator<U>;
  };

  first_touch_allocator() = default;
  template <typename U>
  first_touch_allocator(first_touch_allocator<U> const&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using first_touch_vector = std::vector<T, first_touch_allocator<T>>;

}  // namespace detail

template <typename Cell>
class field2d;

template <typename Policy, typename CellDst, typename CellSrc>
void copy_problem(Policy const& policy, field2d<CellDst>& dst,
                  field2d<CellSrc> const& src);

template <typename Cell>
class field2d {
 public:
  using cell_type = Cell;
  using scalar = simd::get_type_t<Cell>;
  static constexpr std::size_t lanes = simd::lane_count_v<Cell>;
  static constexpr bool vectorized = simd::is_pack_v<Cell>;

  // nx: interior scalars per row; ny: interior rows. Row lengths that are
  // not a lane multiple are stored in padded VNS segments: cells() =
  // ceil(nx / lanes), and the trailing lanes*cells() - nx scalar positions
  // are padding. refresh_row_halos pins the first padded scalar (x = nx) to
  // the row's right Dirichlet ghost, so every *real* cell computes exactly
  // the value of the unpadded problem; the remaining padding lanes evolve
  // as bounded junk that no real cell ever reads.
  field2d(std::size_t nx, std::size_t ny)
      : nx_(nx),
        ny_(ny),
        cells_(simd::vns::packs_for(nx, lanes)),
        stride_(cells_ + 2) {
    PX_ASSERT(nx >= 1 && ny >= 1);
    storage_.assign(stride_ * (ny_ + 2), Cell(scalar(0)));
    if constexpr (vectorized) {
      ghost_left_.assign(ny_ + 2, scalar(0));
      ghost_right_.assign(ny_ + 2, scalar(0));
    }
  }

  // A field of src's shape holding src's problem (as copy_problem leaves
  // it), built in one row pass under `policy`: storage is allocated
  // unwritten, and copy_problem's fill writes every cell of it.
  template <typename Policy, typename SrcCell>
  field2d(Policy const& policy, field2d<SrcCell> const& src)
      : nx_(src.nx()),
        ny_(src.ny()),
        cells_(simd::vns::packs_for(nx_, lanes)),
        stride_(cells_ + 2) {
    storage_.resize(stride_ * (ny_ + 2));
    if constexpr (vectorized) {
      ghost_left_.resize(ny_ + 2);
      ghost_right_.resize(ny_ + 2);
    }
    copy_problem(policy, *this, src);
  }

  [[nodiscard]] std::size_t nx() const noexcept { return nx_; }
  [[nodiscard]] std::size_t ny() const noexcept { return ny_; }
  // Interior cells per row (ceil(nx / lanes)).
  [[nodiscard]] std::size_t cells() const noexcept { return cells_; }
  // Trailing padded scalar positions per row (0 when lanes divides nx).
  [[nodiscard]] std::size_t padding() const noexcept {
    return lanes * cells_ - nx_;
  }
  [[nodiscard]] std::size_t row_stride() const noexcept { return stride_; }

  // Cell access in storage coordinates: s in [0, cells()+2), y in
  // [0, ny()+2); (0, *) / (cells+1, *) are column ghosts, rows 0 and ny+1
  // are row ghosts.
  [[nodiscard]] Cell& cell(std::size_t s, std::size_t y) noexcept {
    PX_ASSERT_DEBUG(s < stride_ && y < ny_ + 2);
    return storage_[y * stride_ + s];
  }
  [[nodiscard]] Cell const& cell(std::size_t s, std::size_t y)
      const noexcept {
    PX_ASSERT_DEBUG(s < stride_ && y < ny_ + 2);
    return storage_[y * stride_ + s];
  }

  // Raw row pointer (storage coordinates), for the hot kernels.
  [[nodiscard]] Cell* row(std::size_t y) noexcept {
    return storage_.data() + y * stride_;
  }
  [[nodiscard]] Cell const* row(std::size_t y) const noexcept {
    return storage_.data() + y * stride_;
  }

  // ---- scalar element view (interior coordinates) ------------------------
  // x in [0, nx), y in [0, ny). For packs this resolves the VNS mapping:
  // lane l of cell j holds scalar x = l * cells() + j, i.e. lane = x /
  // cells(), slot = x % cells().
  [[nodiscard]] scalar get(std::size_t x, std::size_t y) const noexcept {
    PX_ASSERT_DEBUG(x < nx_ && y < ny_);
    if constexpr (vectorized) {
      return cell(1 + simd::vns::slot_of(x, cells_), y + 1)
          .v[simd::vns::lane_of(x, cells_)];
    } else {
      return cell(1 + x, y + 1);
    }
  }

  void set(std::size_t x, std::size_t y, scalar v) noexcept {
    PX_ASSERT_DEBUG(x < nx_ && y < ny_);
    if constexpr (vectorized) {
      cell(1 + simd::vns::slot_of(x, cells_), y + 1)
          .v[simd::vns::lane_of(x, cells_)] = v;
    } else {
      cell(1 + x, y + 1) = v;
    }
  }

  // ---- boundary handling -----------------------------------------------
  // Dirichlet values along the four edges. Row ghosts are stored directly
  // as cells; column ghosts are scalars per row (materialized into halo
  // packs by refresh_row_halos for pack fields).
  void set_left_boundary(std::size_t y, scalar v) noexcept {
    if constexpr (vectorized) {
      ghost_left_[y + 1] = v;
    } else {
      cell(0, y + 1) = v;
    }
  }
  void set_right_boundary(std::size_t y, scalar v) noexcept {
    if constexpr (vectorized) {
      ghost_right_[y + 1] = v;
    } else {
      cell(cells_ + 1, y + 1) = v;
    }
  }
  // Top/bottom boundary rows: scalar x-indexed writes into the ghost rows.
  void set_top_boundary(std::size_t x, scalar v) noexcept {
    write_ghost_row(0, x, v);
  }
  void set_bottom_boundary(std::size_t x, scalar v) noexcept {
    write_ghost_row(ny_ + 1, x, v);
  }

  [[nodiscard]] scalar left_boundary(std::size_t y) const noexcept {
    if constexpr (vectorized) {
      return ghost_left_[y + 1];
    } else {
      return cell(0, y + 1);
    }
  }
  [[nodiscard]] scalar right_boundary(std::size_t y) const noexcept {
    if constexpr (vectorized) {
      return ghost_right_[y + 1];
    } else {
      return cell(cells_ + 1, y + 1);
    }
  }
  [[nodiscard]] scalar top_boundary_value(std::size_t x) const noexcept {
    return read_ghost_row(0, x);
  }
  [[nodiscard]] scalar bottom_boundary_value(std::size_t x) const noexcept {
    return read_ghost_row(ny_ + 1, x);
  }

  // Recomputes the halo packs of storage row y from the row's edge packs
  // and boundary scalars — the per-row "shuffle" of Listing 2. No-op for
  // scalar fields (their ghosts are stored directly).
  void refresh_row_halos(std::size_t y) noexcept {
    if constexpr (vectorized) {
      Cell* r = row(y);
      if (nx_ < lanes * cells_) {
        // Padded row: pin the first padded scalar s[nx] to the right ghost
        // so the last real cell's pack-neighbour read sees the boundary.
        // Must happen before the seams — s[nx] may sit in the first or the
        // last interior pack, feeding right_seam/left_seam below.
        r[1 + simd::vns::slot_of(nx_, cells_)]
            .v[simd::vns::lane_of(nx_, cells_)] = ghost_right_[y];
      }
      r[0] = simd::vns::left_seam(r[cells_], ghost_left_[y]);
      r[cells_ + 1] = simd::vns::right_seam(r[1], ghost_right_[y]);
    } else {
      (void)y;
    }
  }

  // Refreshes every row's halos (after bulk initialization).
  void refresh_all_halos() noexcept {
    for (std::size_t y = 0; y < ny_ + 2; ++y) refresh_row_halos(y);
  }

  // ---- row codec (storage rows) -------------------------------------------
  // Storage row y holds nx real scalars in x order: interior row y-1 for y
  // in [1, ny], the top/bottom boundary values for ghost rows 0 and ny+1.

  // Decodes row y's nx scalars into out (a whole pack at a time for packs).
  void read_row(std::size_t y, std::span<scalar> out) const noexcept {
    PX_ASSERT_DEBUG(y < ny_ + 2 && out.size() == nx_);
    if constexpr (vectorized) {
      simd::vns::decode_padded(row(y) + 1, out, cells_);
    } else {
      std::copy_n(row(y) + 1, nx_, out.data());
    }
  }

  // Encodes nx scalars into row y's interior cells, 0 in every padding
  // lane. Halo packs are left alone: finish the row with write_row_ghosts.
  void write_row(std::size_t y, std::span<scalar const> in) noexcept {
    PX_ASSERT_DEBUG(y < ny_ + 2 && in.size() == nx_);
    if constexpr (vectorized) {
      simd::vns::encode_padded(in, row(y) + 1, cells_);
    } else {
      std::copy_n(in.data(), nx_, row(y) + 1);
    }
  }

  // Sets row y's column ghosts (the Dirichlet scalars; 0 at the ghost
  // rows' corners) and, for packs, rebuilds its halo packs from them.
  void write_row_ghosts(std::size_t y, scalar left, scalar right) noexcept {
    PX_ASSERT_DEBUG(y < ny_ + 2);
    if constexpr (vectorized) {
      ghost_left_[y] = left;
      ghost_right_[y] = right;
      refresh_row_halos(y);
    } else {
      row(y)[0] = left;
      row(y)[cells_ + 1] = right;
    }
  }

  // Bytes of interior data (for bandwidth accounting).
  [[nodiscard]] std::size_t interior_bytes() const noexcept {
    return nx_ * ny_ * sizeof(scalar);
  }

 private:
  void write_ghost_row(std::size_t storage_y, std::size_t x,
                       scalar v) noexcept {
    PX_ASSERT_DEBUG(x < nx_);
    if constexpr (vectorized) {
      cell(1 + simd::vns::slot_of(x, cells_), storage_y)
          .v[simd::vns::lane_of(x, cells_)] = v;
    } else {
      cell(1 + x, storage_y) = v;
    }
  }

  [[nodiscard]] scalar read_ghost_row(std::size_t storage_y,
                                      std::size_t x) const noexcept {
    PX_ASSERT_DEBUG(x < nx_);
    if constexpr (vectorized) {
      return cell(1 + simd::vns::slot_of(x, cells_), storage_y)
          .v[simd::vns::lane_of(x, cells_)];
    } else {
      return cell(1 + x, storage_y);
    }
  }

  std::size_t nx_, ny_, cells_, stride_;
  detail::first_touch_vector<Cell> storage_;
  // Pack fields only: Dirichlet scalars for the row seams (indexed by
  // storage row).
  detail::first_touch_vector<scalar> ghost_left_, ghost_right_;
};

namespace detail {

// Writes every cell of dst's storage row y from src's row y: the row's
// scalars, then its column ghosts (src's Dirichlet values on interior
// rows, 0 at the corners of the ghost rows) and halos.
template <typename CellDst, typename CellSrc>
void copy_row(field2d<CellDst>& dst, field2d<CellSrc> const& src,
              std::size_t y) {
  using T = typename field2d<CellDst>::scalar;
  using S = typename field2d<CellSrc>::scalar;
  if constexpr (!field2d<CellSrc>::vectorized && std::is_same_v<S, T>) {
    dst.write_row(y, {src.row(y) + 1, src.nx()});
  } else {
    // Any other source: decode its row, then convert.
    std::vector<S> raw(src.nx());
    src.read_row(y, raw);
    dst.write_row(y, std::vector<T>(raw.begin(), raw.end()));
  }
  bool const interior = y >= 1 && y <= src.ny();
  dst.write_row_ghosts(
      y, interior ? static_cast<T>(src.left_boundary(y - 1)) : T(0),
      interior ? static_cast<T>(src.right_boundary(y - 1)) : T(0));
}

}  // namespace detail

// Copies one field's interior + boundaries into a field of another cell
// type (e.g. scalar -> pack) so both start from identical state. Every
// storage cell of dst is written, a row at a time over
// for_loop(policy, 1, ny + 1) (the loop a sweep runs); the ghost rows go
// with the first and last iterations.
template <typename Policy, typename CellDst, typename CellSrc>
void copy_problem(Policy const& policy, field2d<CellDst>& dst,
                  field2d<CellSrc> const& src) {
  PX_ASSERT(dst.nx() == src.nx() && dst.ny() == src.ny());
  std::size_t const ny = src.ny();
  parallel::for_loop(policy, 1, ny + 1, [&dst, &src, ny](std::size_t y) {
    if (y == 1) detail::copy_row(dst, src, 0);
    detail::copy_row(dst, src, y);
    if (y == ny) detail::copy_row(dst, src, ny + 1);
  });
}

// Sequential form: no tasks, for callers already inside a timed job.
template <typename CellDst, typename CellSrc>
void copy_problem(field2d<CellDst>& dst, field2d<CellSrc> const& src) {
  copy_problem(execution::seq, dst, src);
}

// The interior decoded back to scalars, row-major (nx*ny), a row at a
// time over for_loop(policy, 1, ny + 1).
template <typename Policy, typename Cell>
[[nodiscard]] std::vector<typename field2d<Cell>::scalar> interior_snapshot(
    Policy const& policy, field2d<Cell> const& f) {
  std::size_t const nx = f.nx();
  std::vector<typename field2d<Cell>::scalar> out(nx * f.ny());
  parallel::for_loop(policy, 1, f.ny() + 1, [&out, &f, nx](std::size_t y) {
    f.read_row(y, std::span(out).subspan((y - 1) * nx, nx));
  });
  return out;
}

// Sequential form, as copy_problem(dst, src).
template <typename Cell>
[[nodiscard]] std::vector<typename field2d<Cell>::scalar> interior_snapshot(
    field2d<Cell> const& f) {
  return interior_snapshot(execution::seq, f);
}

}  // namespace px::stencil

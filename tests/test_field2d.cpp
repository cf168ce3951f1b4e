// Tests for the field2d container in both scalar and pack (VNS) modes:
// element views, boundaries, halo construction, and the row codec: the
// one-pass field2d(policy, src) fill and interior_snapshot against the
// per-cell views, in every storage cell.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "px/px.hpp"
#include "px/stencil/field2d.hpp"
#include "px/stencil/jacobi2d.hpp"
#include "px/stencil/jacobi2d_vns.hpp"
#include "px/support/aligned.hpp"

namespace {

using px::simd::pack;
using px::stencil::field2d;

TEST(Field2dScalar, SetGetRoundtrip) {
  field2d<double> f(8, 4);
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 8; ++x)
      f.set(x, y, static_cast<double>(10 * y + x));
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 8; ++x)
      EXPECT_DOUBLE_EQ(f.get(x, y), static_cast<double>(10 * y + x));
}

TEST(Field2dScalar, ShapeAndStride) {
  field2d<float> f(16, 3);
  EXPECT_EQ(f.nx(), 16u);
  EXPECT_EQ(f.ny(), 3u);
  EXPECT_EQ(f.cells(), 16u);           // scalar: one cell per element
  EXPECT_EQ(f.row_stride(), 18u);      // + 2 ghosts
  EXPECT_EQ(f.interior_bytes(), 16u * 3u * sizeof(float));
}

TEST(Field2dScalar, BoundariesLiveInGhostCells) {
  field2d<double> f(4, 2);
  f.set_left_boundary(1, -1.0);
  f.set_right_boundary(0, -2.0);
  f.set_top_boundary(2, -3.0);
  f.set_bottom_boundary(3, -4.0);
  EXPECT_DOUBLE_EQ(f.left_boundary(1), -1.0);
  EXPECT_DOUBLE_EQ(f.right_boundary(0), -2.0);
  EXPECT_DOUBLE_EQ(f.top_boundary_value(2), -3.0);
  EXPECT_DOUBLE_EQ(f.bottom_boundary_value(3), -4.0);
  EXPECT_DOUBLE_EQ(f.cell(0, 2), -1.0);      // storage view agrees
  EXPECT_DOUBLE_EQ(f.cell(5, 1), -2.0);
}

using PackCell = pack<double, 4>;

TEST(Field2dPack, ShapeUsesLanes) {
  field2d<PackCell> f(16, 3);
  EXPECT_EQ(f.cells(), 4u);        // 16 scalars / 4 lanes
  EXPECT_EQ(f.row_stride(), 6u);   // + 2 halo packs
  EXPECT_TRUE(field2d<PackCell>::vectorized);
}

TEST(Field2dPack, SetGetRoundtripThroughVnsMapping) {
  field2d<PackCell> f(16, 2);
  for (std::size_t y = 0; y < 2; ++y)
    for (std::size_t x = 0; x < 16; ++x)
      f.set(x, y, static_cast<double>(100 * y + x));
  for (std::size_t y = 0; y < 2; ++y)
    for (std::size_t x = 0; x < 16; ++x)
      EXPECT_DOUBLE_EQ(f.get(x, y), static_cast<double>(100 * y + x));
  // Spot-check the underlying layout: lane l of cell j is x = l*cells + j.
  // Storage row 2 = interior row 1; slot 2, lane 3 -> x = 3*4 + 2 = 14.
  EXPECT_DOUBLE_EQ(f.cell(1 + 2, 2).v[3], 100.0 + 3 * 4 + 2);
}

TEST(Field2dPack, HaloRefreshBuildsSeams) {
  field2d<PackCell> f(16, 1);
  for (std::size_t x = 0; x < 16; ++x)
    f.set(x, 0, static_cast<double>(x));
  f.set_left_boundary(0, -5.0);
  f.set_right_boundary(0, 55.0);
  f.refresh_row_halos(1);  // storage row of interior row 0

  // Left halo pack: lane l holds the left neighbour of x = l*4, i.e.
  // ghost for lane 0 and x = l*4 - 1 otherwise.
  auto const& lh = f.cell(0, 1);
  EXPECT_DOUBLE_EQ(lh.v[0], -5.0);
  EXPECT_DOUBLE_EQ(lh.v[1], 3.0);
  EXPECT_DOUBLE_EQ(lh.v[2], 7.0);
  EXPECT_DOUBLE_EQ(lh.v[3], 11.0);
  // Right halo pack: lane l holds the right neighbour of x = l*4 + 3.
  auto const& rh = f.cell(f.cells() + 1, 1);
  EXPECT_DOUBLE_EQ(rh.v[0], 4.0);
  EXPECT_DOUBLE_EQ(rh.v[1], 8.0);
  EXPECT_DOUBLE_EQ(rh.v[2], 12.0);
  EXPECT_DOUBLE_EQ(rh.v[3], 55.0);
}

TEST(Field2dPack, ScalarAndPackFieldsAgreeAfterIdenticalWrites) {
  field2d<double> s(8, 3);
  field2d<pack<double, 2>> p(8, 3);
  for (std::size_t y = 0; y < 3; ++y)
    for (std::size_t x = 0; x < 8; ++x) {
      double const v = std::sin(static_cast<double>(x + 10 * y));
      s.set(x, y, v);
      p.set(x, y, v);
    }
  for (std::size_t y = 0; y < 3; ++y)
    for (std::size_t x = 0; x < 8; ++x)
      EXPECT_DOUBLE_EQ(s.get(x, y), p.get(x, y));
}

TEST(Field2dPack, NonLaneMultipleRowsUsePaddedSegments) {
  // nx = 12 with W = 8 used to be rejected; padded VNS segments now store
  // it as cells() = ceil(12/8) = 2 packs with 4 trailing pad scalars.
  field2d<pack<float, 8>> f(12, 2);
  EXPECT_EQ(f.cells(), 2u);
  EXPECT_EQ(f.padding(), 4u);
  for (std::size_t y = 0; y < 2; ++y)
    for (std::size_t x = 0; x < 12; ++x)
      f.set(x, y, float(x + 100 * y));
  for (std::size_t y = 0; y < 2; ++y)
    for (std::size_t x = 0; x < 12; ++x)
      ASSERT_EQ(f.get(x, y), float(x + 100 * y)) << x << "," << y;
}

// ---- typed invariants across all cell types -------------------------------

template <typename Cell>
class Field2dTyped : public ::testing::Test {};

using CellTypes = ::testing::Types<double, float, pack<double, 2>,
                                   pack<double, 4>, pack<float, 4>,
                                   pack<float, 8>, pack<float, 16>>;
TYPED_TEST_SUITE(Field2dTyped, CellTypes);

TYPED_TEST(Field2dTyped, InteriorWriteReadIsIdentity) {
  using scalar = typename field2d<TypeParam>::scalar;
  constexpr std::size_t lanes = field2d<TypeParam>::lanes;
  field2d<TypeParam> f(lanes * 6, 5);
  for (std::size_t y = 0; y < f.ny(); ++y)
    for (std::size_t x = 0; x < f.nx(); ++x)
      f.set(x, y, static_cast<scalar>(x * 31 + y * 7));
  for (std::size_t y = 0; y < f.ny(); ++y)
    for (std::size_t x = 0; x < f.nx(); ++x)
      ASSERT_EQ(f.get(x, y), static_cast<scalar>(x * 31 + y * 7))
          << "x=" << x << " y=" << y;
}

TYPED_TEST(Field2dTyped, BoundaryAccessorsRoundtrip) {
  using scalar = typename field2d<TypeParam>::scalar;
  constexpr std::size_t lanes = field2d<TypeParam>::lanes;
  field2d<TypeParam> f(lanes * 4, 3);
  for (std::size_t y = 0; y < f.ny(); ++y) {
    f.set_left_boundary(y, static_cast<scalar>(100 + y));
    f.set_right_boundary(y, static_cast<scalar>(200 + y));
  }
  for (std::size_t x = 0; x < f.nx(); ++x) {
    f.set_top_boundary(x, static_cast<scalar>(300 + x));
    f.set_bottom_boundary(x, static_cast<scalar>(400 + x));
  }
  for (std::size_t y = 0; y < f.ny(); ++y) {
    EXPECT_EQ(f.left_boundary(y), static_cast<scalar>(100 + y));
    EXPECT_EQ(f.right_boundary(y), static_cast<scalar>(200 + y));
  }
  for (std::size_t x = 0; x < f.nx(); ++x) {
    EXPECT_EQ(f.top_boundary_value(x), static_cast<scalar>(300 + x));
    EXPECT_EQ(f.bottom_boundary_value(x), static_cast<scalar>(400 + x));
  }
}

TYPED_TEST(Field2dTyped, BoundariesDoNotAliasInterior) {
  using scalar = typename field2d<TypeParam>::scalar;
  constexpr std::size_t lanes = field2d<TypeParam>::lanes;
  field2d<TypeParam> f(lanes * 4, 3);
  for (std::size_t y = 0; y < f.ny(); ++y)
    for (std::size_t x = 0; x < f.nx(); ++x)
      f.set(x, y, scalar(1));
  for (std::size_t y = 0; y < f.ny(); ++y) {
    f.set_left_boundary(y, scalar(9));
    f.set_right_boundary(y, scalar(9));
  }
  for (std::size_t x = 0; x < f.nx(); ++x) {
    f.set_top_boundary(x, scalar(9));
    f.set_bottom_boundary(x, scalar(9));
  }
  for (std::size_t y = 0; y < f.ny(); ++y)
    for (std::size_t x = 0; x < f.nx(); ++x)
      ASSERT_EQ(f.get(x, y), scalar(1));
}

TYPED_TEST(Field2dTyped, HaloRefreshIsIdempotent) {
  using scalar = typename field2d<TypeParam>::scalar;
  constexpr std::size_t lanes = field2d<TypeParam>::lanes;
  field2d<TypeParam> f(lanes * 4, 3);
  for (std::size_t y = 0; y < f.ny(); ++y)
    for (std::size_t x = 0; x < f.nx(); ++x)
      f.set(x, y, static_cast<scalar>(x + y));
  f.refresh_all_halos();
  // Snapshot a cell row, refresh again, compare.
  auto const before = f.cell(0, 1);
  f.refresh_all_halos();
  auto const after = f.cell(0, 1);
  if constexpr (field2d<TypeParam>::vectorized) {
    for (std::size_t l = 0; l < lanes; ++l)
      ASSERT_EQ(before[l], after[l]);
  } else {
    ASSERT_EQ(before, after);
  }
}

TYPED_TEST(Field2dTyped, OneJacobiSweepMatchesScalarField) {
  using scalar = typename field2d<TypeParam>::scalar;
  constexpr std::size_t lanes = field2d<TypeParam>::lanes;
  std::size_t const nx = lanes * 4, ny = 4;

  field2d<TypeParam> a0(nx, ny), a1(nx, ny);
  field2d<double> s0(nx, ny), s1(nx, ny);
  for (auto setup = 0; setup < 1; ++setup) {
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x) {
        double const v = 0.25 * static_cast<double>((x * 13 + y * 5) % 9);
        a0.set(x, y, static_cast<scalar>(v));
        s0.set(x, y, v);
      }
    a0.refresh_all_halos();
    a1.refresh_all_halos();
    s0.refresh_all_halos();
  }
  for (std::size_t y = 1; y <= ny; ++y) {
    jacobi2d_row_update(a0, a1, y);
    jacobi2d_row_update(s0, s1, y);
  }
  double const tol = std::is_same_v<scalar, float> ? 1e-6 : 0.0;
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      ASSERT_NEAR(static_cast<double>(a1.get(x, y)), s1.get(x, y), tol)
          << "x=" << x << " y=" << y;
}

// ---- the row codec: field2d(policy, src) and interior_snapshot ------------

// The per-cell copy the row codec replaced, kept as the oracle: a zeroing
// constructor followed by this defines every storage cell of a fill.
template <typename CellDst, typename CellSrc>
void per_cell_copy(field2d<CellDst>& dst, field2d<CellSrc> const& src) {
  using scalar = typename field2d<CellDst>::scalar;
  for (std::size_t y = 0; y < src.ny(); ++y)
    for (std::size_t x = 0; x < src.nx(); ++x)
      dst.set(x, y, static_cast<scalar>(src.get(x, y)));
  for (std::size_t y = 0; y < src.ny(); ++y) {
    dst.set_left_boundary(y, static_cast<scalar>(src.left_boundary(y)));
    dst.set_right_boundary(y, static_cast<scalar>(src.right_boundary(y)));
  }
  for (std::size_t x = 0; x < src.nx(); ++x) {
    dst.set_top_boundary(x, static_cast<scalar>(src.top_boundary_value(x)));
    dst.set_bottom_boundary(
        x, static_cast<scalar>(src.bottom_boundary_value(x)));
  }
  dst.refresh_all_halos();
}

// A problem with a different value in every interior cell and on every
// boundary, so a cell copied from the wrong place shows.
template <typename T>
field2d<T> distinct_problem(std::size_t nx, std::size_t ny) {
  field2d<T> f(nx, ny);
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x)
      f.set(x, y, static_cast<T>(std::sin(0.37 * double(x) + 1.3 * double(y))));
    f.set_left_boundary(y, static_cast<T>(2.0 + 0.01 * double(y)));
    f.set_right_boundary(y, static_cast<T>(-3.0 - 0.01 * double(y)));
  }
  for (std::size_t x = 0; x < nx; ++x) {
    f.set_top_boundary(x, static_cast<T>(5.0 + 0.001 * double(x)));
    f.set_bottom_boundary(x, static_cast<T>(-7.0 - 0.001 * double(x)));
  }
  return f;
}

// Leaves `bytes` of all-ones memory (a NaN in every float and double) free
// on the calling thread's heap, so the field allocated next of that size
// reuses it: a cell the fill skips then reads back as NaN, not as a fresh
// page's zero. The first round trip raises glibc's dynamic mmap threshold
// past `bytes`, so the second and the field come from the heap.
void dirty_heap(std::size_t bytes) {
  for (int round = 0; round < 2; ++round) {
    void* p = px::aligned_alloc_bytes(bytes, 64);
    std::memset(p, 0xff, bytes);
    asm volatile("" : : "r"(p) : "memory");  // keep the fill before free
    px::aligned_free(p);
  }
}

// First storage cell (column ghosts, halo packs, padding lanes, ghost rows
// and their corners included) where a and b differ bitwise; "" if none.
template <typename Cell>
std::string first_difference(field2d<Cell> const& a, field2d<Cell> const& b) {
  if (a.nx() != b.nx() || a.ny() != b.ny()) return "shape";
  for (std::size_t y = 0; y < a.ny() + 2; ++y)
    for (std::size_t s = 0; s < a.row_stride(); ++s)
      if (std::memcmp(&a.cell(s, y), &b.cell(s, y), sizeof(Cell)) != 0)
        return "cell s=" + std::to_string(s) + " y=" + std::to_string(y);
  for (std::size_t y = 0; y < a.ny(); ++y)
    if (a.left_boundary(y) != b.left_boundary(y) ||
        a.right_boundary(y) != b.right_boundary(y))
      return "column ghost y=" + std::to_string(y);
  return "";
}

std::vector<std::size_t> const codec_nx = {5, 32, 33, 1024, 1027};
// 256 rows: `par` forks the wide rows' fill, `par.with(7)` forks any nx.
constexpr std::size_t codec_ny = 256;

px::scheduler_config four_workers() {
  px::scheduler_config c;
  c.num_workers = 4;
  return c;
}

// Fills a Cell field from a T problem under `par` (measured grain) and
// under a fixed 7-row chunk (forks at every nx), each on a dirtied heap,
// and compares every storage cell with the per-cell oracle and with the
// zeroing constructor plus copy_problem.
template <typename Cell, typename T>
void fill_case(px::runtime& rt, std::size_t nx, std::string const& what) {
  auto const src = distinct_problem<T>(nx, codec_ny);
  field2d<Cell> oracle(nx, codec_ny);
  per_cell_copy(oracle, src);
  field2d<Cell> copied(nx, codec_ny);
  px::stencil::copy_problem(copied, src);
  ASSERT_EQ(first_difference(copied, oracle), "") << what << " nx=" << nx;

  std::size_t const bytes = oracle.row_stride() * (codec_ny + 2) * sizeof(Cell);
  auto const fill = [&](auto const& policy) {
    return px::sync_wait(rt, [&] {
      dirty_heap(bytes);
      return field2d<Cell>(policy, src);
    });
  };
  EXPECT_EQ(first_difference(fill(px::execution::par), oracle), "")
      << what << " par nx=" << nx;
  EXPECT_EQ(first_difference(fill(px::execution::par.with(7)), oracle), "")
      << what << " par.with(7) nx=" << nx;
}

// Runs `fn(type_identity<Cell>, name)` for T's scalar cells and for the
// pack of every vns_abi preset.
template <typename T, typename Fn>
void for_each_cell_kind(Fn&& fn) {
  fn(std::type_identity<T>{}, std::string("scalar"));
  for (auto abi : px::stencil::vns_abi_presets)
    px::stencil::with_vns_pack<T>(abi, [&](auto tag) {
      fn(tag, std::string(px::stencil::vns_abi_name(abi)));
    });
}

template <typename T>
void fill_all_cases() {
  px::runtime rt(four_workers());
  for_each_cell_kind<T>([&](auto tag, std::string const& what) {
    using Cell = typename decltype(tag)::type;
    for (std::size_t nx : codec_nx) fill_case<Cell, T>(rt, nx, what);
  });
}

TEST(Field2dRowFill, EveryStorageCellMatchesPerCellCopyDouble) {
  fill_all_cases<double>();
}

TEST(Field2dRowFill, EveryStorageCellMatchesPerCellCopyFloat) {
  fill_all_cases<float>();
}

template <typename T>
bool bitwise_equal(std::vector<T> const& a, std::vector<T> const& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(Field2dRowFill, ConvertsFromAnyCellType) {
  // A pack<float> source decodes row-wise and widens into double cells.
  px::runtime rt(four_workers());
  for (std::size_t nx : codec_nx) {
    field2d<pack<float, 4>> src(nx, codec_ny);
    per_cell_copy(src, distinct_problem<float>(nx, codec_ny));
    field2d<double> oracle(nx, codec_ny);
    per_cell_copy(oracle, src);
    auto const filled = px::sync_wait(
        rt, [&] { return field2d<double>(px::execution::par, src); });
    EXPECT_EQ(first_difference(filled, oracle), "") << "nx=" << nx;
  }
}

// interior_snapshot under par and seq against the per-cell view, after a
// few sweeps so the padding lanes hold junk the decode must skip.
template <typename T>
void snapshot_all_cases() {
  px::runtime rt(four_workers());
  for_each_cell_kind<T>([&](auto tag, std::string const& what) {
    using Cell = typename decltype(tag)::type;
    for (std::size_t nx : codec_nx) {
      auto const src = distinct_problem<T>(nx, codec_ny);
      field2d<Cell> u0(nx, codec_ny), u1(nx, codec_ny);
      per_cell_copy(u0, src);
      per_cell_copy(u1, src);
      auto const [par, seq] = px::sync_wait(rt, [&] {
        px::stencil::run_jacobi2d(px::execution::par, u0, u1, 3);
        return std::make_pair(
            px::stencil::interior_snapshot(px::execution::par, u1),
            px::stencil::interior_snapshot(px::execution::seq, u1));
      });
      std::vector<T> per_cell(nx * codec_ny);
      for (std::size_t y = 0; y < codec_ny; ++y)
        for (std::size_t x = 0; x < nx; ++x)
          per_cell[y * nx + x] = u1.get(x, y);
      EXPECT_TRUE(bitwise_equal(par, per_cell)) << what << " par nx=" << nx;
      EXPECT_TRUE(bitwise_equal(seq, per_cell)) << what << " seq nx=" << nx;
      EXPECT_TRUE(bitwise_equal(px::stencil::interior_snapshot(u1), seq))
          << what << " nx=" << nx;
    }
  });
}

TEST(Field2dSnapshot, ParAndSeqMatchPerCellGetDouble) {
  snapshot_all_cases<double>();
}

TEST(Field2dSnapshot, ParAndSeqMatchPerCellGetFloat) {
  snapshot_all_cases<float>();
}

}  // namespace

// Tests for the distributed 2D Jacobi solver and the cache-blocked
// shared-memory variant.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "px/px.hpp"
#include "px/stencil/stencil.hpp"

namespace {

using namespace px::stencil;
using px::counters::builtin;

px::dist::domain_config dcfg(std::size_t n, double injection = 0.001) {
  px::dist::domain_config c;
  c.num_localities = n;
  c.locality_cfg.num_workers = 2;
  c.injection_scale = injection;
  return c;
}

std::vector<double> wavy_interior(std::size_t nx, std::size_t ny) {
  std::vector<double> v(nx * ny);
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      v[y * nx + x] = std::sin(0.3 * static_cast<double>(x)) *
                      std::cos(0.2 * static_cast<double>(y));
  return v;
}

std::vector<double> reference(std::vector<double> const& initial,
                              dist_jacobi_config const& cfg) {
  return reference_jacobi2d_interior(initial, cfg.nx,
                                     initial.size() / cfg.nx, cfg.steps,
                                     cfg.boundary);
}

class DistJacobiLocalities : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DistJacobiLocalities, MatchesSerialReference) {
  std::size_t const nloc = GetParam();
  px::dist::distributed_domain dom(dcfg(nloc));
  dist_jacobi_config cfg;
  cfg.nx = 24;
  cfg.steps = 15;
  auto initial = wavy_interior(cfg.nx, 37);  // ragged row blocks
  auto result = run_distributed_jacobi2d(dom, initial, cfg);
  EXPECT_TRUE(result.values == reference(initial, cfg)) << nloc;
}

INSTANTIATE_TEST_SUITE_P(Localities, DistJacobiLocalities,
                         ::testing::Values(1, 2, 3, 5));

TEST(DistJacobi, SingleRowBlocks) {
  // As many localities as rows: every block is one row; all neighbours
  // are remote. The hardest halo pattern.
  px::dist::distributed_domain dom(dcfg(6));
  dist_jacobi_config cfg;
  cfg.nx = 16;
  cfg.steps = 10;
  auto initial = wavy_interior(cfg.nx, 6);
  auto result = run_distributed_jacobi2d(dom, initial, cfg);
  EXPECT_TRUE(result.values == reference(initial, cfg));
}

TEST(DistJacobi, HaloTrafficScalesWithRowLength) {
  auto run_nx = [&](std::size_t nx) {
    px::dist::distributed_domain dom(dcfg(2));
    dist_jacobi_config cfg;
    cfg.nx = nx;
    cfg.steps = 5;
    auto initial = wavy_interior(cfg.nx, 8);
    auto result = run_distributed_jacobi2d(dom, initial, cfg);
    return result.halo_bytes;
  };
  auto const narrow = run_nx(16);
  auto const wide = run_nx(256);
  // Halo rows are nx doubles; the gather/scatter traffic also grows with
  // nx, so wide must be much larger.
  EXPECT_GT(wide, 4 * narrow);
}

TEST(DistJacobi, SimdBlocksMatchScalarBlocksBitwise) {
  // SIMD inside the blocks + parcels between them: results must equal the
  // scalar path bitwise (doubles, same per-element expression).
  dist_jacobi_config cfg;
  cfg.nx = 32;  // lane multiple for every plausible native width
  cfg.steps = 12;
  auto initial = wavy_interior(cfg.nx, 21);

  px::dist::distributed_domain dom_scalar(dcfg(3));
  auto scalar = run_distributed_jacobi2d(dom_scalar, initial, cfg);

  cfg.use_simd = true;
  px::dist::distributed_domain dom_simd(dcfg(3));
  auto simd = run_distributed_jacobi2d(dom_simd, initial, cfg);

  ASSERT_EQ(scalar.values.size(), simd.values.size());
  for (std::size_t i = 0; i < scalar.values.size(); ++i)
    ASSERT_EQ(scalar.values[i], simd.values[i]) << i;
}

TEST(DistJacobi, SimdBlocksPadRowsNotLaneMultiple) {
  // A row that is not a lane multiple runs in padded VNS segments, not in
  // scalar cells: same answer as the reference, and bitwise as the scalar
  // blocks.
  dist_jacobi_config cfg;
  cfg.nx = 17;  // never a lane multiple
  cfg.steps = 8;
  cfg.use_simd = true;
  auto initial = wavy_interior(cfg.nx, 9);
  px::dist::distributed_domain dom(dcfg(2));
  auto result = run_distributed_jacobi2d(dom, initial, cfg);
  EXPECT_TRUE(result.values == reference(initial, cfg));

  cfg.use_simd = false;
  px::dist::distributed_domain dom_scalar(dcfg(2));
  auto scalar = run_distributed_jacobi2d(dom_scalar, initial, cfg);
  ASSERT_EQ(scalar.values.size(), result.values.size());
  for (std::size_t i = 0; i < scalar.values.size(); ++i)
    ASSERT_EQ(scalar.values[i], result.values[i]) << i;
}

TEST(DistJacobi, CustomBoundaryValue) {
  px::dist::distributed_domain dom(dcfg(2));
  dist_jacobi_config cfg;
  cfg.nx = 8;
  cfg.steps = 400;
  cfg.boundary = -2.5;
  std::vector<double> initial(cfg.nx * 8, 0.0);
  auto result = run_distributed_jacobi2d(dom, initial, cfg);
  // Long runs converge to the boundary value.
  for (double v : result.values) EXPECT_NEAR(v, -2.5, 1e-3);
}

// Coalesced halo rows leave at the step boundary (an explicit flush), not
// when a coalescing deadline expires.
TEST(DistJacobi, CoalescedHalosFlushAtTheStepBoundary) {
  for (std::size_t const steps : {10u, 40u}) {
    auto c = dcfg(4, 0.0);
    c.coalescing.enabled = true;
    px::dist::distributed_domain dom(c);
    dist_jacobi_config cfg;
    cfg.nx = 64;
    cfg.steps = steps;
    auto const initial = wavy_interior(cfg.nx, 32);
    auto const explicit0 = builtin().net_flushes_explicit.load();
    auto const deadline0 = builtin().net_flushes_deadline.load();
    auto const out = run_distributed_jacobi2d(dom, initial, cfg);
    auto const explicit_flushes =
        builtin().net_flushes_explicit.load() - explicit0;
    auto const deadline_flushes =
        builtin().net_flushes_deadline.load() - deadline0;
    dom.wait_all_quiescent();
    EXPECT_GT(explicit_flushes, deadline_flushes) << steps << " steps";
    EXPECT_TRUE(out.values == reference(initial, cfg)) << steps << " steps";
  }
}

// One initial field through every solver mode, with scalar cells and with
// VNS packs (nx 17 pads every pack row): each answer must equal the serial
// reference bit for bit, whatever the split, placement or fabric.
struct jacobi_mode {
  std::string name;
  std::size_t partitions;  // 0 = one per locality
  double zipf_s;
  bool rebalance;
  std::size_t checkpoint_interval;
  bool lossy;  // 1% drop/dup/reorder, coalescing + LZ
  bool use_simd;

  friend void PrintTo(jacobi_mode const& m, std::ostream* os) {
    *os << m.name;
  }
};

std::vector<jacobi_mode> jacobi_modes() {
  std::vector<jacobi_mode> const base = {
      {"uniform", 0, 0.0, false, 0, false, false},
      {"zipf16", 16, 1.1, false, 0, false, false},
      {"zipf16_rebalanced", 16, 1.1, true, 0, false, false},
      {"checkpointed", 0, 0.0, false, 5, false, false},
      {"lossy_coalesced_lz", 0, 0.0, false, 0, true, false}};
  std::vector<jacobi_mode> out;
  for (bool const simd : {false, true}) {
    for (jacobi_mode m : base) {
      m.use_simd = simd;
      m.name += simd ? "_simd" : "_scalar";
      out.push_back(m);
    }
  }
  return out;
}

class DistJacobiModes : public ::testing::TestWithParam<jacobi_mode> {};

TEST_P(DistJacobiModes, BitwiseEqualsReference) {
  jacobi_mode const m = GetParam();
  auto c = dcfg(4, 0.0);
  if (m.lossy) {
    c.faults.drop = 0.01;
    c.faults.duplicate = 0.01;
    c.faults.reorder = 0.01;
    c.faults.seed = 7;
    c.coalescing.enabled = true;
    c.coalescing.compress = true;
  }
  px::dist::distributed_domain dom(c);
  dist_jacobi_config cfg;
  cfg.nx = 17;
  cfg.steps = 40;
  cfg.use_simd = m.use_simd;
  cfg.partitions = m.partitions;
  cfg.zipf_s = m.zipf_s;
  cfg.rebalance_cfg.enabled = m.rebalance;
  cfg.checkpoint_interval = m.checkpoint_interval;
  auto const initial = wavy_interior(cfg.nx, 48);  // 16 zipf partitions fit
  auto const out = run_distributed_jacobi2d(dom, initial, cfg);
  dom.wait_all_quiescent();
  EXPECT_TRUE(out.values == reference(initial, cfg));
  if (m.rebalance) {
    EXPECT_GT(out.migrations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, DistJacobiModes,
                         ::testing::ValuesIn(jacobi_modes()),
                         [](::testing::TestParamInfo<jacobi_mode> const& m) {
                           return m.param.name;
                         });

// ---- cache-blocked variant --------------------------------------------------

struct BlockedTest : ::testing::Test {
  px::runtime rt{[] {
    px::scheduler_config c;
    c.num_workers = 3;
    return c;
  }()};
};

class BlockedBandRows : public BlockedTest,
                        public ::testing::WithParamInterface<std::size_t> {};

TEST_P(BlockedBandRows, BitwiseEqualToPlainKernel) {
  constexpr std::size_t nx = 32, ny = 23, steps = 9;
  field2d<double> p0(nx, ny), p1(nx, ny), b0(nx, ny), b1(nx, ny);
  for (auto* f : {&p0, &p1, &b0, &b1}) init_dirichlet_problem(*f);

  blocked_config bc;
  bc.band_rows = GetParam();
  px::sync_wait(rt, [&] {
    run_jacobi2d(px::execution::par, p0, p1, steps);
    run_jacobi2d_blocked(px::execution::par, b0, b1, steps, bc);
    return 0;
  });
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      ASSERT_EQ(p1.get(x, y), b1.get(x, y))
          << "band=" << GetParam() << " x=" << x << " y=" << y;
}

INSTANTIATE_TEST_SUITE_P(Bands, BlockedBandRows,
                         ::testing::Values(1, 2, 3, 8, 23, 100));

TEST_F(BlockedTest, BlockedWorksWithPackCells) {
  using Cell = px::simd::pack<double, 4>;
  constexpr std::size_t nx = 32, ny = 12, steps = 7;
  field2d<Cell> b0(nx, ny), b1(nx, ny);
  field2d<double> r0(nx, ny), r1(nx, ny);
  for (auto* f : {&r0, &r1}) init_dirichlet_problem(*f);
  init_dirichlet_problem(b0);
  init_dirichlet_problem(b1);
  px::sync_wait(rt, [&] {
    run_jacobi2d_blocked(px::execution::par, b0, b1, steps);
    run_jacobi2d(px::execution::par, r0, r1, steps);
    return 0;
  });
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      ASSERT_EQ(b1.get(x, y), r1.get(x, y));
}

TEST_F(BlockedTest, DerivedBandRowsRespectCacheBudget) {
  field2d<double> f(1024, 8);
  blocked_config bc;
  bc.cache_bytes = 64 * 1024;
  std::size_t const rows = derive_band_rows(f, bc);
  EXPECT_GE(rows, 2u);
  // 4 rows x row bytes must fit the budget (or be clamped to minimum 2).
  if (rows > 2) {
    EXPECT_LE(4 * rows * f.row_stride() * sizeof(double), bc.cache_bytes);
  }
}

}  // namespace

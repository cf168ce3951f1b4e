// Tests for the explicitly vectorized stencil kernels: padded VNS
// encode/decode round-trips at arbitrary (odd) row lengths, the seam
// rotations against a scalar neighbour gather on random rows, the
// ABI-preset 2D Jacobi runners against the serial reference and the
// auto-vectorized solver, the VNS 1D heat kernel, unaligned pack ops at
// odd offsets, and the cache-blocked 3D Jacobi (reference agreement,
// block-shape invariance, and a seed sweep in the torture lane).
#include <gtest/gtest.h>

#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "px/px.hpp"
#include "px/stencil/reference.hpp"
#include "px/torture/forall.hpp"
#include "px/stencil/stencil.hpp"

namespace {

using px::simd::pack;
using namespace px::stencil;

px::scheduler_config cfg3() {
  px::scheduler_config c;
  c.num_workers = 3;
  return c;
}

// ---- padded VNS encode/decode -------------------------------------------

TEST(VnsPadded, PacksForIsCeilDiv) {
  namespace vns = px::simd::vns;
  EXPECT_EQ(vns::packs_for(1, 4), 1u);
  EXPECT_EQ(vns::packs_for(4, 4), 1u);
  EXPECT_EQ(vns::packs_for(5, 4), 2u);
  EXPECT_EQ(vns::packs_for(8, 4), 2u);
  EXPECT_EQ(vns::packs_for(17, 16), 2u);
  EXPECT_EQ(vns::packs_for(33, 8), 5u);
}

template <std::size_t W>
void padded_round_trip_case(std::size_t n, std::uint64_t seed) {
  namespace vns = px::simd::vns;
  using P = pack<double, W>;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-4.0, 4.0);
  std::vector<double> src(n);
  for (auto& v : src) v = dist(rng);

  std::size_t const nv = vns::packs_for(n, W);
  double const pad = -77.5;
  std::vector<P> packs(nv);
  vns::encode_padded(std::span<double const>(src), packs.data(), nv, pad);

  // Every real scalar sits at its canonical VNS coordinate; every padding
  // position holds the pad value.
  for (std::size_t x = 0; x < W * nv; ++x) {
    double const got = packs[vns::slot_of(x, nv)].v[vns::lane_of(x, nv)];
    if (x < n) {
      ASSERT_EQ(got, src[x]) << "n=" << n << " W=" << W << " x=" << x;
    } else {
      ASSERT_EQ(got, pad) << "n=" << n << " W=" << W << " x=" << x;
    }
  }

  std::vector<double> out(n, 0.0);
  vns::decode_padded(packs.data(), std::span<double>(out), nv);
  ASSERT_EQ(out, src) << "n=" << n << " W=" << W;
}

TEST(VnsPadded, EncodeDecodeRoundTripArbitrarySizes) {
  std::uint64_t seed = 0x5eed;
  for (std::size_t n : {1, 2, 3, 5, 7, 9, 15, 17, 31, 33, 51, 63, 65}) {
    padded_round_trip_case<4>(n, seed++);
    padded_round_trip_case<8>(n, seed++);
    padded_round_trip_case<16>(n, seed++);
  }
}

// ---- seam orientation vs scalar neighbour gather ------------------------

// Property: for a random row s[0..W*nv), the pack-level neighbour scheme
// (whole-pack neighbours plus left_seam/right_seam at the segment seams)
// must deliver, lane for lane, exactly the scalars a serial gather of
// s[x-1] / s[x+1] delivers (with the ghosts outside the row).
template <std::size_t W>
void seam_gather_case(std::size_t nv, std::uint64_t seed) {
  namespace vns = px::simd::vns;
  using P = pack<double, W>;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-8.0, 8.0);
  std::size_t const n = W * nv;
  std::vector<double> s(n);
  for (auto& v : s) v = dist(rng);
  double const left_ghost = dist(rng);
  double const right_ghost = dist(rng);

  std::vector<P> packs(nv);
  vns::encode(std::span<double const>(s), packs.data(), nv);
  P const lseam = vns::left_seam(packs[nv - 1], left_ghost);
  P const rseam = vns::right_seam(packs[0], right_ghost);

  for (std::size_t x = 0; x < n; ++x) {
    std::size_t const j = vns::slot_of(x, nv);
    std::size_t const l = vns::lane_of(x, nv);
    double const want_left = x == 0 ? left_ghost : s[x - 1];
    double const want_right = x + 1 == n ? right_ghost : s[x + 1];
    double const got_left = (j == 0 ? lseam : packs[j - 1]).v[l];
    double const got_right = (j + 1 == nv ? rseam : packs[j + 1]).v[l];
    ASSERT_EQ(got_left, want_left)
        << "left of x=" << x << " nv=" << nv << " W=" << W;
    ASSERT_EQ(got_right, want_right)
        << "right of x=" << x << " nv=" << nv << " W=" << W;
  }
}

TEST(VnsSeams, MatchScalarNeighbourGatherOnRandomRows) {
  std::uint64_t seed = 0xface;
  for (std::size_t nv : {1, 2, 3, 5, 8, 13}) {
    seam_gather_case<2>(nv, seed++);
    seam_gather_case<4>(nv, seed++);
    seam_gather_case<8>(nv, seed++);
    seam_gather_case<16>(nv, seed++);
  }
}

// ---- unaligned pack ops at odd offsets ----------------------------------

// The stencil kernels index interior rows from offset 1, so nearly every
// pack access is misaligned; the alignment audit requires those sites to
// use the unaligned ops. Pin that load/store round-trips at every in-pack
// offset (an aligned move on these pointers would be UB under AVX-512).
template <typename T, std::size_t W>
void unaligned_offsets_case() {
  using P = pack<T, W>;
  alignas(P::alignment) T buf[3 * W];
  alignas(P::alignment) T out[3 * W];
  for (std::size_t i = 0; i < 3 * W; ++i) buf[i] = T(i) * T(0.5);
  for (std::size_t off = 0; off < W; ++off) {
    P const v = px::simd::load_unaligned<P>(buf + off);
    for (std::size_t l = 0; l < W; ++l)
      ASSERT_EQ(v.v[l], buf[off + l]) << "off=" << off << " lane=" << l;
    for (auto& x : out) x = T(-1);
    px::simd::store_unaligned(out + off, v);
    for (std::size_t l = 0; l < W; ++l)
      ASSERT_EQ(out[off + l], buf[off + l]) << "off=" << off;
  }
}

TEST(SimdAlignment, UnalignedLoadStoreRoundTripsAtEveryOffset) {
  unaligned_offsets_case<float, 4>();
  unaligned_offsets_case<float, 8>();
  unaligned_offsets_case<float, 16>();
  unaligned_offsets_case<double, 2>();
  unaligned_offsets_case<double, 4>();
  unaligned_offsets_case<double, 8>();
}

// ---- field2d padded segments (odd nx) -----------------------------------

TEST(Field2dPadded, OddNxGetSetRoundTrip) {
  field2d<pack<double, 4>> f(5, 3);  // cells() = 2, padding() = 3
  EXPECT_EQ(f.cells(), 2u);
  EXPECT_EQ(f.padding(), 3u);
  for (std::size_t y = 0; y < 3; ++y)
    for (std::size_t x = 0; x < 5; ++x)
      f.set(x, y, double(10 * y + x));
  for (std::size_t y = 0; y < 3; ++y)
    for (std::size_t x = 0; x < 5; ++x)
      ASSERT_EQ(f.get(x, y), double(10 * y + x)) << x << "," << y;
}

TEST(Field2dPadded, RefreshPinsFirstPaddedScalarToRightGhost) {
  namespace vns = px::simd::vns;
  // nx=5, W=4 -> cells()=2, s[5] sits in lane 2 of the *first* interior
  // pack (slot_of(5, 2) = 1 ... check both a slot-0 and a slot-1 case).
  for (std::size_t nx : {5, 6, 7}) {
    field2d<pack<double, 4>> f(nx, 2);
    init_dirichlet_problem(f);
    f.set_right_boundary(0, 3.5);
    f.refresh_row_halos(1);
    auto const* r = f.row(1);
    std::size_t const nv = f.cells();
    ASSERT_EQ(r[1 + vns::slot_of(nx, nv)].v[vns::lane_of(nx, nv)], 3.5)
        << "nx=" << nx;
  }
}

// ---- 2D Jacobi: VNS runners vs reference and auto -----------------------

std::vector<double> reference_initial(std::size_t nx, std::size_t ny) {
  std::vector<double> u((nx + 2) * (ny + 2), 0.0);
  for (std::size_t y = 0; y < ny + 2; ++y) {
    u[y * (nx + 2)] = 1.0;
    u[y * (nx + 2) + nx + 1] = 1.0;
  }
  for (std::size_t x = 0; x < nx + 2; ++x) {
    u[x] = 1.0;
    u[(ny + 1) * (nx + 2) + x] = 1.0;
  }
  return u;
}

template <typename T>
void vns_vs_reference_case(vns_abi abi, std::size_t nx, std::size_t ny,
                           std::size_t steps) {
  field2d<T> initial(nx, ny);
  init_dirichlet_problem(initial);
  auto const run =
      run_jacobi2d_vns<T>(px::execution::seq, abi, initial, steps);
  auto const ref = reference_jacobi2d(reference_initial(nx, ny), nx, ny,
                                      steps);
  double const tol = std::is_same_v<T, float> ? 2e-5 : 1e-12;
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      ASSERT_NEAR(static_cast<double>(run.interior[y * nx + x]),
                  ref[(y + 1) * (nx + 2) + x + 1], tol)
          << vns_abi_name(abi) << " x=" << x << " y=" << y;
}

TEST(Jacobi2dVns, AllPresetsMatchReferenceAtOddSizesFloat) {
  for (vns_abi abi : vns_abi_presets) {
    vns_vs_reference_case<float>(abi, 5, 3, 8);
    vns_vs_reference_case<float>(abi, 17, 6, 10);
    vns_vs_reference_case<float>(abi, 33, 7, 12);
    vns_vs_reference_case<float>(abi, 51, 4, 9);
  }
}

TEST(Jacobi2dVns, AllPresetsMatchReferenceAtOddSizesDouble) {
  for (vns_abi abi : vns_abi_presets) {
    vns_vs_reference_case<double>(abi, 5, 3, 8);
    vns_vs_reference_case<double>(abi, 17, 6, 10);
    vns_vs_reference_case<double>(abi, 33, 7, 12);
    vns_vs_reference_case<double>(abi, 51, 4, 9);
  }
}

TEST(Jacobi2dVns, PackAndAutoBitwiseIdenticalForDoubles) {
  // Identical expression per element, mul-last (no FMA contraction), so
  // doubles must agree bitwise with the scalar-cell (auto-vectorized)
  // solver at every preset width, including odd nx with padded segments.
  // The 1027x256 problem is large enough for `par` to fork the row fill,
  // the sweeps and the snapshot.
  px::runtime rt(cfg3());
  std::pair<std::size_t, std::size_t> const shapes[] = {
      {32, 10}, {33, 10}, {1027, 256}};
  for (vns_abi abi : vns_abi_presets) {
    for (auto const& [nx, ny] : shapes) {
      field2d<double> initial(nx, ny);
      init_dirichlet_problem(initial);
      auto [vns_run, auto_run] = px::sync_wait(rt, [&] {
        return std::make_pair(
            run_jacobi2d_vns<double>(px::execution::par, abi, initial, 25),
            run_jacobi2d_auto<double>(px::execution::par, initial, 25));
      });
      ASSERT_EQ(vns_run.interior.size(), auto_run.interior.size());
      for (std::size_t i = 0; i < vns_run.interior.size(); ++i)
        ASSERT_EQ(vns_run.interior[i], auto_run.interior[i])
            << vns_abi_name(abi) << " nx=" << nx << " i=" << i;
    }
  }
}

TEST(Jacobi2dVns, AbiLanesAndNames) {
  EXPECT_EQ(vns_abi_vector_bits(vns_abi::neon128), 128u);
  EXPECT_EQ(vns_abi_vector_bits(vns_abi::avx2), 256u);
  EXPECT_EQ(vns_abi_vector_bits(vns_abi::sve512), 512u);
  EXPECT_EQ(vns_abi_lanes<float>(vns_abi::sve512), 16u);
  EXPECT_EQ(vns_abi_lanes<double>(vns_abi::avx2), 4u);
  EXPECT_EQ(std::string(vns_abi_name(vns_abi::sve512)), "sve512");
}

// ---- 1D heat: VNS row kernel --------------------------------------------

// Tolerance, not bitwise: the heat update c + k*(l - 2c + r) ends in an
// add, so FMA contraction can differ between the pack and scalar builds.
template <std::size_t W>
void heat_vns_case(std::size_t nx, std::size_t steps) {
  auto const initial = heat1d_sine_initial(nx);
  double const k = 0.1;
  auto const got = run_heat1d_vns<double, W>(
      std::span<double const>(initial), steps, k);
  auto const ref = reference_heat1d(initial, steps, k);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t x = 0; x < nx; ++x)
    ASSERT_NEAR(got[x], ref[x], 1e-12) << "nx=" << nx << " x=" << x;
}

TEST(Heat1dVns, MatchesReferenceIncludingOddSizes) {
  for (std::size_t nx : {5, 17, 33, 64, 101}) {
    heat_vns_case<4>(nx, 50);
    heat_vns_case<8>(nx, 50);
  }
}

TEST(Heat1dVns, AutovecBaselineMatchesReference) {
  auto const initial = heat1d_sine_initial(65);
  auto const got =
      run_heat1d_autovec<double>(std::span<double const>(initial), 40, 0.1);
  auto const ref = reference_heat1d(initial, 40, 0.1);
  for (std::size_t x = 0; x < got.size(); ++x)
    ASSERT_NEAR(got[x], ref[x], 1e-12) << "x=" << x;
}

// ---- 3D blocked Jacobi --------------------------------------------------

std::vector<double> reference_initial3d(std::size_t nx, std::size_t ny,
                                        std::size_t nz) {
  field3d<double> f(nx, ny, nz);
  init_dirichlet_problem3d(f);
  std::vector<double> u((nx + 2) * (ny + 2) * (nz + 2));
  std::size_t i = 0;
  for (std::size_t z = 0; z < nz + 2; ++z)
    for (std::size_t y = 0; y < ny + 2; ++y)
      for (std::size_t x = 0; x < nx + 2; ++x) u[i++] = f.at(x, y, z);
  return u;
}

std::vector<double> run_blocked3d(px::runtime& rt, std::size_t nx,
                                  std::size_t ny, std::size_t nz,
                                  jacobi3d_config cfg) {
  field3d<double> u0(nx, ny, nz), u1(nx, ny, nz);
  init_dirichlet_problem3d(u0);
  init_dirichlet_problem3d(u1);
  auto const r = px::sync_wait(rt, [&] {
    return run_jacobi3d_blocked(px::execution::par, u0, u1, cfg);
  });
  return interior_snapshot3d(r.final_index == 0 ? u0 : u1);
}

TEST(Jacobi3dBlocked, MatchesReferenceBitwiseDouble) {
  // Mul-last expression in the same association order as the reference:
  // doubles agree bitwise.
  px::runtime rt(cfg3());
  constexpr std::size_t nx = 20, ny = 12, nz = 8, steps = 3;
  jacobi3d_config cfg;
  cfg.steps = steps;
  auto const got = run_blocked3d(rt, nx, ny, nz, cfg);
  auto const ref = reference_jacobi3d(reference_initial3d(nx, ny, nz), nx,
                                      ny, nz, steps);
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x)
        ASSERT_EQ(got[(z * ny + y) * nx + x],
                  ref[((z + 1) * (ny + 2) + y + 1) * (nx + 2) + x + 1])
            << x << "," << y << "," << z;
}

TEST(Jacobi3dBlocked, BlockShapeAndSimdPathInvariant) {
  // Jacobi has no intra-sweep dependencies: every block shape and both
  // inner-loop paths must produce bitwise identical doubles.
  px::runtime rt(cfg3());
  constexpr std::size_t nx = 21, ny = 10, nz = 6;
  jacobi3d_config base;
  base.steps = 4;
  auto const want = run_blocked3d(rt, nx, ny, nz, base);

  jacobi3d_config variants[4] = {base, base, base, base};
  variants[0].block_x = 7;
  variants[0].block_y = 3;
  variants[0].block_z = 2;
  variants[1].block_x = 1;
  variants[1].block_y = 1;
  variants[1].block_z = 1;
  variants[2].block_x = 64;
  variants[2].block_y = 64;
  variants[2].block_z = 64;
  variants[3].explicit_simd = true;
  for (auto const& cfg : variants) {
    auto const got = run_blocked3d(rt, nx, ny, nz, cfg);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i])
          << "i=" << i << " bx=" << cfg.block_x << " by=" << cfg.block_y
          << " bz=" << cfg.block_z << " simd=" << cfg.explicit_simd;
  }
}

// ---- torture lane: seed sweep of the 3D blocked kernel ------------------

TEST(SimdTorture, Jacobi3dBlockedSeedSweep) {
  namespace torture = px::torture;
  torture::forall_options opts;
  opts.dump_stem = "torture-simd";
  auto const r = torture::forall_seeds(
      torture::seed_count(16), [](std::uint64_t seed) {
        std::mt19937_64 rng(seed);
        auto pick = [&](std::size_t lo, std::size_t hi) {
          return lo + rng() % (hi - lo + 1);
        };
        std::size_t const nx = pick(3, 24);
        std::size_t const ny = pick(3, 16);
        std::size_t const nz = pick(3, 12);
        jacobi3d_config cfg;
        cfg.steps = pick(1, 3);
        cfg.block_x = pick(0, 9);
        cfg.block_y = pick(0, 6);
        cfg.block_z = pick(0, 4);
        cfg.explicit_simd = (rng() & 1) != 0;

        px::runtime rt(cfg3());
        auto const got = run_blocked3d(rt, nx, ny, nz, cfg);
        auto const ref = reference_jacobi3d(
            reference_initial3d(nx, ny, nz), nx, ny, nz, cfg.steps);
        for (std::size_t z = 0; z < nz; ++z)
          for (std::size_t y = 0; y < ny; ++y)
            for (std::size_t x = 0; x < nx; ++x) {
              double const g = got[(z * ny + y) * nx + x];
              double const w =
                  ref[((z + 1) * (ny + 2) + y + 1) * (nx + 2) + x + 1];
              if (g != w)
                throw std::runtime_error(
                    "blocked 3D kernel diverged from reference at (" +
                    std::to_string(x) + "," + std::to_string(y) + "," +
                    std::to_string(z) + "): " + std::to_string(g) +
                    " vs " + std::to_string(w) + " [nx=" +
                    std::to_string(nx) + " ny=" + std::to_string(ny) +
                    " nz=" + std::to_string(nz) + " bx=" +
                    std::to_string(cfg.block_x) + " by=" +
                    std::to_string(cfg.block_y) + " bz=" +
                    std::to_string(cfg.block_z) + " simd=" +
                    std::to_string(cfg.explicit_simd) + "]");
            }
      },
      opts);
  EXPECT_TRUE(r.passed) << "seed " << r.failing_seed << ": " << r.message;
}

}  // namespace

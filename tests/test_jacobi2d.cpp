// Tests for the 2D Jacobi solver: agreement with the serial reference,
// scalar-vs-pack equivalence across widths and precisions, boundary
// handling, and convergence.
#include <gtest/gtest.h>

#include "px/px.hpp"
#include "px/stencil/convergence.hpp"
#include "px/stencil/jacobi2d.hpp"
#include "px/stencil/reference.hpp"

namespace {

using px::simd::pack;
using namespace px::stencil;

px::scheduler_config cfg3() {
  px::scheduler_config c;
  c.num_workers = 3;
  return c;
}

// Builds the reference ghost-ring grid matching init_dirichlet_problem.
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

template <typename Cell>
void check_against_reference(std::size_t nx, std::size_t ny,
                             std::size_t steps) {
  px::runtime rt(cfg3());
  field2d<Cell> u0(nx, ny), u1(nx, ny);
  init_dirichlet_problem(u0);
  init_dirichlet_problem(u1);

  auto result = px::sync_wait(rt, [&] {
    return run_jacobi2d(px::execution::par, u0, u1, steps);
  });
  auto const& final_field = result.final_index == 0 ? u0 : u1;

  auto ref = reference_jacobi2d(reference_initial(nx, ny), nx, ny, steps);
  using scalar = typename field2d<Cell>::scalar;
  double const tol = std::is_same_v<scalar, float> ? 2e-5 : 1e-12;
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      ASSERT_NEAR(static_cast<double>(final_field.get(x, y)),
                  ref[(y + 1) * (nx + 2) + x + 1], tol)
          << "x=" << x << " y=" << y;
}

TEST(Jacobi2d, ScalarDoubleMatchesReference) {
  check_against_reference<double>(16, 12, 20);
}
TEST(Jacobi2d, ScalarFloatMatchesReference) {
  check_against_reference<float>(16, 12, 20);
}
TEST(Jacobi2d, PackDoubleW2MatchesReference) {
  check_against_reference<pack<double, 2>>(16, 12, 20);
}
TEST(Jacobi2d, PackDoubleW4MatchesReference) {
  check_against_reference<pack<double, 4>>(32, 9, 15);
}
TEST(Jacobi2d, PackDoubleW8MatchesReference) {
  check_against_reference<pack<double, 8>>(64, 5, 10);
}
TEST(Jacobi2d, PackFloatW4MatchesReference) {
  check_against_reference<pack<float, 4>>(16, 8, 10);
}
TEST(Jacobi2d, PackFloatW8MatchesReference) {
  check_against_reference<pack<float, 8>>(32, 8, 10);
}
TEST(Jacobi2d, PackFloatW16MatchesReference) {
  // The A64FX SVE-512 shape of the paper.
  check_against_reference<pack<float, 16>>(64, 6, 8);
}

TEST(Jacobi2d, ScalarAndPackBitwiseIdenticalForDoubles) {
  // The pack kernel evaluates the same expression per element, so double
  // results must agree bitwise with the scalar kernel.
  px::runtime rt(cfg3());
  constexpr std::size_t nx = 32, ny = 10, steps = 25;
  field2d<double> s0(nx, ny), s1(nx, ny);
  field2d<pack<double, 4>> p0(nx, ny), p1(nx, ny);
  init_dirichlet_problem(s0);
  init_dirichlet_problem(s1);
  init_dirichlet_problem(p0);
  init_dirichlet_problem(p1);
  px::sync_wait(rt, [&] {
    run_jacobi2d(px::execution::par, s0, s1, steps);
    run_jacobi2d(px::execution::par, p0, p1, steps);
    return 0;
  });
  auto const& sf = steps % 2 == 0 ? s0 : s1;
  auto const& pf = steps % 2 == 0 ? p0 : p1;
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      ASSERT_EQ(sf.get(x, y), pf.get(x, y)) << "x=" << x << " y=" << y;
}

TEST(Jacobi2d, ConvergesTowardBoundaryValue) {
  // With all-1 Dirichlet boundaries the interior converges to 1.
  px::runtime rt(cfg3());
  field2d<double> u0(8, 8), u1(8, 8);
  init_dirichlet_problem(u0);
  init_dirichlet_problem(u1);
  px::sync_wait(rt, [&] {
    return run_jacobi2d(px::execution::par, u0, u1, 2000);
  });
  for (std::size_t y = 0; y < 8; ++y)
    for (std::size_t x = 0; x < 8; ++x)
      EXPECT_NEAR(u0.get(x, y), 1.0, 1e-6);
}

TEST(Jacobi2d, ZeroStepsLeavesFieldUntouched) {
  px::runtime rt(cfg3());
  field2d<double> u0(8, 4), u1(8, 4);
  init_dirichlet_problem(u0);
  u0.set(3, 2, 9.0);
  auto r = px::sync_wait(rt, [&] {
    return run_jacobi2d(px::execution::par, u0, u1, 0);
  });
  EXPECT_EQ(r.final_index, 0u);
  EXPECT_DOUBLE_EQ(u0.get(3, 2), 9.0);
}

TEST(Jacobi2d, ReportsPlausibleGlups) {
  px::runtime rt(cfg3());
  field2d<float> u0(128, 64), u1(128, 64);
  init_dirichlet_problem(u0);
  init_dirichlet_problem(u1);
  auto r = px::sync_wait(rt, [&] {
    return run_jacobi2d(px::execution::par, u0, u1, 50);
  });
  EXPECT_GT(r.glups, 0.0);
  EXPECT_EQ(r.steps, 50u);
  EXPECT_GT(r.seconds, 0.0);
}

TEST(Jacobi2d, ResidualIsZeroAtFixedPoint) {
  px::runtime rt(cfg3());
  field2d<double> f(8, 8);
  // Constant field equal to its boundaries is the Jacobi fixed point.
  init_dirichlet_problem(f);
  for (std::size_t y = 0; y < 8; ++y)
    for (std::size_t x = 0; x < 8; ++x) f.set(x, y, 1.0);
  f.refresh_all_halos();
  double const r = px::sync_wait(rt, [&] {
    return jacobi2d_residual(px::execution::par, f);
  });
  EXPECT_NEAR(r, 0.0, 1e-15);
}

TEST(Jacobi2d, ResidualDetectsDefect) {
  px::runtime rt(cfg3());
  field2d<double> f(8, 8);
  init_dirichlet_problem(f);
  for (std::size_t y = 0; y < 8; ++y)
    for (std::size_t x = 0; x < 8; ++x) f.set(x, y, 1.0);
  f.set(3, 3, 1.5);
  f.refresh_all_halos();
  double const r = px::sync_wait(rt, [&] {
    return jacobi2d_residual(px::execution::par, f);
  });
  EXPECT_NEAR(r, 0.5, 1e-12);  // the poked cell's own defect dominates
}

TEST(Jacobi2d, SolveToToleranceConverges) {
  px::runtime rt(cfg3());
  field2d<double> u0(16, 16), u1(16, 16);
  init_dirichlet_problem(u0);
  init_dirichlet_problem(u1);
  auto result = px::sync_wait(rt, [&] {
    return solve_jacobi2d_to_tolerance(px::execution::par, u0, u1, 1e-8,
                                       100000, 32);
  });
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.residual, 1e-8);
  EXPECT_GT(result.sweeps, 10u);
  auto const& fin = result.final_index == 0 ? u0 : u1;
  for (std::size_t y = 0; y < 16; ++y)
    for (std::size_t x = 0; x < 16; ++x)
      EXPECT_NEAR(fin.get(x, y), 1.0, 1e-5);
}

TEST(Jacobi2d, SolveToToleranceRespectsSweepCap) {
  px::runtime rt(cfg3());
  field2d<double> u0(32, 32), u1(32, 32);
  init_dirichlet_problem(u0);
  init_dirichlet_problem(u1);
  auto result = px::sync_wait(rt, [&] {
    return solve_jacobi2d_to_tolerance(px::execution::par, u0, u1, 1e-14,
                                       20, 8);
  });
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.sweeps, 20u);
  EXPECT_GT(result.residual, 1e-14);
}

TEST(Jacobi2d, ResidualAgreesBetweenScalarAndPack) {
  // nx 5, 7 and 33 are padded rows for pack<double, 4>: their padding
  // lanes must not count.
  px::runtime rt(cfg3());
  for (std::size_t nx : {16, 5, 7, 33}) {
    field2d<double> s(nx, 8);
    field2d<px::simd::pack<double, 4>> p(nx, 8);
    init_dirichlet_problem(s);
    init_dirichlet_problem(p);
    for (std::size_t y = 0; y < 8; ++y)
      for (std::size_t x = 0; x < nx; ++x) {
        double const v = 0.1 * static_cast<double>(x) -
                         0.05 * static_cast<double>(y);
        s.set(x, y, v);
        p.set(x, y, v);
      }
    s.refresh_all_halos();
    p.refresh_all_halos();
    auto [rs, rp] = px::sync_wait(rt, [&] {
      return std::make_pair(jacobi2d_residual(px::execution::par, s),
                            jacobi2d_residual(px::execution::par, p));
    });
    EXPECT_DOUBLE_EQ(rs, rp) << "nx=" << nx;
  }
}

TEST(Jacobi2d, PaddedPackSolveStopsWithScalarSolve) {
  // A padded pack field converges on its real cells; the residual must see
  // that at the same sweep as the scalar solve, not run to the cap.
  for (std::size_t nx : {5, 33}) {
    field2d<double> s0(nx, 8), s1(nx, 8);
    field2d<px::simd::pack<double, 4>> p0(nx, 8), p1(nx, 8);
    for (auto* f : {&s0, &s1}) init_dirichlet_problem(*f);
    for (auto* f : {&p0, &p1}) init_dirichlet_problem(*f);
    auto const rs = solve_jacobi2d_to_tolerance(px::execution::seq, s0, s1,
                                                1e-6, 20000);
    auto const rp = solve_jacobi2d_to_tolerance(px::execution::seq, p0, p1,
                                                1e-6, 20000);
    EXPECT_TRUE(rs.converged) << "nx=" << nx;
    EXPECT_TRUE(rp.converged) << "nx=" << nx;
    EXPECT_EQ(rp.sweeps, rs.sweeps) << "nx=" << nx;
    EXPECT_EQ(rp.residual, rs.residual) << "nx=" << nx;
  }
}

TEST(Jacobi2d, SequencedPolicyGivesSameAnswer) {
  field2d<double> a0(8, 6), a1(8, 6), b0(8, 6), b1(8, 6);
  for (auto* f : {&a0, &a1, &b0, &b1}) init_dirichlet_problem(*f);
  px::runtime rt(cfg3());
  px::sync_wait(rt, [&] {
    run_jacobi2d(px::execution::par, a0, a1, 13);
    return 0;
  });
  run_jacobi2d(px::execution::seq, b0, b1, 13);
  for (std::size_t y = 0; y < 6; ++y)
    for (std::size_t x = 0; x < 8; ++x)
      ASSERT_EQ(a1.get(x, y), b1.get(x, y));
}

}  // namespace

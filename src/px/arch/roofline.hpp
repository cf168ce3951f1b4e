// px/arch/roofline.hpp
// The roofline model of §III-C, Eq. 1:
//   Attainable Performance = min(CP, AI x BW)
// plus the paper's stencil arithmetic intensities (§V-B): assuming three
// memory transfers per LUP the AI is 1/12 LUP/Byte for floats and 1/24 for
// doubles; with inherent cache blocking (two transfers) 1/8 and 1/16.
#pragma once

#include <cstddef>

#include "px/arch/machine.hpp"

namespace px::arch {

// Eq. 1. Units: GFLOP/s (or GLUP/s when `ai` is LUP/Byte).
[[nodiscard]] constexpr double attainable(double peak_compute,
                                          double ai_per_byte,
                                          double bandwidth_gbs) noexcept {
  double const mem_bound = ai_per_byte * bandwidth_gbs;
  return mem_bound < peak_compute ? mem_bound : peak_compute;
}

// Arithmetic intensity in LUP/Byte for a stencil that moves
// `transfers_per_lup` scalars of `scalar_bytes` through main memory per
// lattice-site update.
[[nodiscard]] constexpr double stencil_ai(std::size_t scalar_bytes,
                                          std::size_t transfers_per_lup)
    noexcept {
  return 1.0 /
         static_cast<double>(scalar_bytes * transfers_per_lup);
}

// The paper's "Expected Peak Min" (3 transfers) and "Expected Peak Max"
// (2 transfers, cache-blocking behaviour) for a data type of `scalar_bytes`
// at a given bandwidth, in GLUP/s.
[[nodiscard]] constexpr double expected_peak_min(std::size_t scalar_bytes,
                                                 double bandwidth_gbs)
    noexcept {
  return stencil_ai(scalar_bytes, 3) * bandwidth_gbs;
}

[[nodiscard]] constexpr double expected_peak_max(std::size_t scalar_bytes,
                                                 double bandwidth_gbs)
    noexcept {
  return stencil_ai(scalar_bytes, 2) * bandwidth_gbs;
}

// GLUP/s ceiling from the compute side: one LUP of the 5-point Jacobi is 4
// FLOPs (3 adds + 1 multiply); single precision doubles the FLOP rate.
[[nodiscard]] constexpr double compute_peak_glups(
    double peak_dp_gflops, std::size_t scalar_bytes) noexcept {
  double const flops = scalar_bytes == 4 ? peak_dp_gflops * 2.0
                                         : peak_dp_gflops;
  return flops / 4.0;
}

}  // namespace px::arch

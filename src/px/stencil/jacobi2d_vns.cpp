#include "px/stencil/jacobi2d_vns.hpp"

namespace px::stencil {

char const* vns_abi_name(vns_abi a) noexcept {
  switch (a) {
    case vns_abi::neon128:
      return "neon128";
    case vns_abi::avx2:
      return "avx2";
    case vns_abi::sve512:
      return "sve512";
    case vns_abi::native:
    default:
      return "native";
  }
}

std::size_t vns_abi_vector_bits(vns_abi a) noexcept {
  switch (a) {
    case vns_abi::neon128:
      return 128;
    case vns_abi::avx2:
      return 256;
    case vns_abi::sve512:
      return 512;
    case vns_abi::native:
    default:
      return simd::abi::native_vector_bits;
  }
}

}  // namespace px::stencil

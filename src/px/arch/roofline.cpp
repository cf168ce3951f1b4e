// Anchor TU for px/arch/roofline.hpp (all-constexpr header).
#include "px/arch/roofline.hpp"

namespace px::arch {
static_assert(attainable(100.0, 0.1, 500.0) == 50.0,
              "memory-bound branch of Eq. 1");
static_assert(attainable(100.0, 10.0, 500.0) == 100.0,
              "compute-bound branch of Eq. 1");
}  // namespace px::arch

// px/support/affinity.hpp
// OS-thread pinning and naming, the moral equivalent of hwloc-bind in the
// paper's methodology ("pinning one thread per core using hwloc-bind").
#pragma once

#include <cstddef>
#include <string>
#include <thread>

namespace px {

// Pins the calling thread to the given logical CPU. Returns false (without
// raising) when the kernel rejects the mask, e.g. in restricted containers
// or when cpu >= hardware_concurrency.
bool pin_this_thread(std::size_t cpu) noexcept;

// Names the calling thread for debuggers/perf (truncated to 15 chars).
void name_this_thread(std::string const& name) noexcept;

// Number of logical CPUs this process may run on: its affinity mask (so
// `taskset -c 0` reads 1), else std::thread::hardware_concurrency(), and
// never less than 1.
std::size_t hardware_concurrency() noexcept;

}  // namespace px

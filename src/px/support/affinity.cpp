#include "px/support/affinity.hpp"

#include <pthread.h>
#include <sched.h>

namespace px {

bool pin_this_thread(std::size_t cpu) noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= CPU_SETSIZE) return false;
  CPU_SET(static_cast<int>(cpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

void name_this_thread(std::string const& name) noexcept {
  std::string trimmed = name.substr(0, 15);
  (void)pthread_setname_np(pthread_self(), trimmed.c_str());
}

std::size_t hardware_concurrency() noexcept {
  // Read once: sched_getaffinity(0) reports the calling thread's mask, and
  // a pinned worker's mask is one CPU. The first call comes before any
  // worker pins itself (scheduler::start reads host_topology() first).
  static std::size_t const n = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
      return static_cast<std::size_t>(CPU_COUNT(&set));
    return static_cast<std::size_t>(std::thread::hardware_concurrency());
  }();
  return n == 0 ? 1 : n;
}

}  // namespace px

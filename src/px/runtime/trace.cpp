#include "px/runtime/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "px/runtime/worker.hpp"
#include "px/support/spin.hpp"

namespace px::trace {
namespace {

struct event {
  char const* name;  // static strings only
  std::uint64_t task_id;
  std::uint64_t begin_us;
  std::uint64_t duration_us;
  std::uint32_t worker_lane;
};

// One single-writer ring per recording thread. Slots [0, count) of the
// ring's current generation are immutable once written (rings fill, never
// wrap), so a reader that loads `count` with acquire may read those slots
// from any thread without tearing. The writer resets `count` BEFORE
// publishing a new `gen`; a reader that observes the new generation
// therefore never attributes a stale count (or stale slots) to it.
struct ring {
  explicit ring(std::size_t cap) : capacity(cap), slots(new event[cap]) {}
  ~ring() { delete[] slots; }
  ring(ring const&) = delete;
  ring& operator=(ring const&) = delete;

  std::size_t const capacity;
  event* const slots;
  std::atomic<std::uint32_t> gen{0};
  std::atomic<std::size_t> count{0};
  std::atomic<bool> in_use{false};  // bound to a live thread
};

std::atomic<bool> g_enabled{false};
// Generation 0 means "never enabled": rings start at gen 0 with no events,
// so the first enable() must move past it.
std::atomic<std::uint32_t> g_generation{0};
std::atomic<std::uint64_t> g_dropped_overflow{0};
std::atomic<std::uint64_t> g_dropped_flip{0};

// Registry of every ring ever created, and their owner. Rings are never
// destroyed while threads run (threads come and go; their events must
// survive for to_json()), but a ring whose generation is stale — nothing
// can read it — is recycled for the next new thread, so long-running test
// binaries that cycle runtimes don't accumulate a ring per historical
// worker thread. Ownership here frees them at static destruction, which
// is safe against the main thread's TLS release because thread_local
// destructors strongly happen before static-storage destructors.
px::spinlock g_registry_lock;
std::vector<std::unique_ptr<ring>>& registry() {
  static std::vector<std::unique_ptr<ring>> v;
  return v;
}

std::size_t& ring_capacity() {
  static std::size_t cap = std::size_t{1} << 15;
  return cap;
}

ring* acquire_ring() {
  std::lock_guard<px::spinlock> guard(g_registry_lock);
  std::uint32_t const gen = g_generation.load(std::memory_order_acquire);
  std::size_t const cap = ring_capacity();
  for (auto const& r : registry()) {
    if (r->in_use.load(std::memory_order_relaxed)) continue;
    if (r->capacity != cap) continue;
    // Current-generation events in a retired ring are still readable;
    // only a stale-generation ring is truly dead storage.
    if (r->gen.load(std::memory_order_relaxed) == gen && gen != 0) continue;
    r->count.store(0, std::memory_order_relaxed);
    r->gen.store(0, std::memory_order_release);  // "no generation yet"
    r->in_use.store(true, std::memory_order_relaxed);
    return r.get();
  }
  auto r = std::make_unique<ring>(cap);
  r->in_use.store(true, std::memory_order_relaxed);
  registry().push_back(std::move(r));
  return registry().back().get();
}

struct tls_ring {
  ring* r = nullptr;
  ~tls_ring() {
    if (r != nullptr) r->in_use.store(false, std::memory_order_release);
  }
};
thread_local tls_ring t_ring;

ring& my_ring() {
  if (t_ring.r == nullptr) t_ring.r = acquire_ring();
  return *t_ring.r;
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

}  // namespace

std::uint64_t now_us() noexcept {
  static auto const epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

void enable() {
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  g_enabled.store(true, std::memory_order_release);
}

void disable() { g_enabled.store(false, std::memory_order_release); }

bool enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

std::uint32_t generation() noexcept {
  return g_generation.load(std::memory_order_acquire);
}

std::uint64_t dropped_count() noexcept {
  return g_dropped_overflow.load(std::memory_order_relaxed) +
         g_dropped_flip.load(std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t events) {
  std::lock_guard<px::spinlock> guard(g_registry_lock);
  ring_capacity() = events > 0 ? events : 1;
}

void record_slice(char const* name, std::uint64_t task_id,
                  std::uint64_t begin_us, std::uint64_t duration_us,
                  std::uint32_t worker_lane, std::uint32_t gen) {
  if (!enabled() || gen != generation()) {
    // The slice began under a different enable()/disable() state than it
    // ended: its timestamps belong to a dead epoch. Count, don't record.
    g_dropped_flip.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring& r = my_ring();
  if (r.gen.load(std::memory_order_relaxed) != gen) {
    // Lazy per-ring reset: count first, generation second (readers check
    // the generation first, so they can never pair the new generation with
    // the old count).
    r.count.store(0, std::memory_order_relaxed);
    r.gen.store(gen, std::memory_order_release);
  }
  std::size_t const n = r.count.load(std::memory_order_relaxed);
  if (n >= r.capacity) {
    g_dropped_overflow.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  r.slots[n] = {name, task_id, begin_us, duration_us, worker_lane};
  r.count.store(n + 1, std::memory_order_release);
}

void record_slice(char const* name, std::uint64_t task_id,
                  std::uint64_t begin_us, std::uint64_t duration_us,
                  std::uint32_t worker_lane) {
  if (!enabled()) {
    g_dropped_flip.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  record_slice(name, task_id, begin_us, duration_us, worker_lane,
               generation());
}

std::size_t event_count() {
  std::lock_guard<px::spinlock> guard(g_registry_lock);
  std::uint32_t const gen = g_generation.load(std::memory_order_acquire);
  std::size_t total = 0;
  for (auto const& r : registry())
    if (r->gen.load(std::memory_order_acquire) == gen)
      total += std::min(r->count.load(std::memory_order_acquire),
                        r->capacity);
  return total;
}

std::string to_json() {
  // Merge the current generation's rings into one sorted event list. The
  // registry lock only guards the ring list; live writers keep recording —
  // slots below each acquired count are immutable, so this is a consistent
  // prefix snapshot per thread.
  std::vector<event> merged;
  std::vector<std::uint32_t> lanes;
  {
    std::lock_guard<px::spinlock> guard(g_registry_lock);
    std::uint32_t const gen = g_generation.load(std::memory_order_acquire);
    for (auto const& r : registry()) {
      if (r->gen.load(std::memory_order_acquire) != gen) continue;
      std::size_t const n =
          std::min(r->count.load(std::memory_order_acquire), r->capacity);
      merged.insert(merged.end(), r->slots, r->slots + n);
    }
  }
  std::sort(merged.begin(), merged.end(), [](event const& a, event const& b) {
    if (a.begin_us != b.begin_us) return a.begin_us < b.begin_us;
    if (a.worker_lane != b.worker_lane) return a.worker_lane < b.worker_lane;
    return a.task_id < b.task_id;
  });
  for (event const& e : merged)
    if (std::find(lanes.begin(), lanes.end(), e.worker_lane) == lanes.end())
      lanes.push_back(e.worker_lane);
  std::sort(lanes.begin(), lanes.end());

  std::string out;
  out.reserve(merged.size() * 96 + lanes.size() * 80 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  // Metadata first: name each lane so viewers show "worker #N"/"external"
  // instead of bare thread ids (and the external lane can't be mistaken
  // for a worker).
  for (std::uint32_t lane : lanes) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    append_u64(out, lane);
    out += ",\"args\":{\"name\":\"";
    if (lane == external_lane)
      out += "external";
    else
      out += "worker #" + std::to_string(lane);
    out += "\"}}";
  }
  for (auto const& e : merged) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += e.name;
    out += "\",\"ph\":\"X\",\"pid\":0,\"tid\":";
    append_u64(out, e.worker_lane);
    out += ",\"ts\":";
    append_u64(out, e.begin_us);
    out += ",\"dur\":";
    append_u64(out, e.duration_us);
    out += ",\"args\":{\"task\":";
    append_u64(out, e.task_id);
    out += "}}";
  }
  out += "]}";
  return out;
}

bool write_json_file(std::string const& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << to_json();
  return static_cast<bool>(f);
}

scoped_region::scoped_region(char const* name) noexcept
    : name_(name), begin_us_(0), gen_(0), active_(enabled()) {
  if (active_) {
    gen_ = generation();
    begin_us_ = now_us();
  }
}

scoped_region::~scoped_region() {
  if (!active_) return;
  std::uint64_t const end = now_us();
  rt::worker* w = rt::worker::current();
  record_slice(name_, 0, begin_us_, end > begin_us_ ? end - begin_us_ : 0,
               w != nullptr ? static_cast<std::uint32_t>(w->index())
                            : external_lane,
               gen_);
}

}  // namespace px::trace

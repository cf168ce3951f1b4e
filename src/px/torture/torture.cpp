#include "px/torture/torture.hpp"

#include <chrono>
#include <fstream>
#include <thread>

#include "px/counters/counters.hpp"
#include "px/runtime/worker.hpp"
#include "px/support/assert.hpp"
#include "px/support/random.hpp"
#include "px/support/spin.hpp"

namespace px::torture {

char const* site_name(site s) noexcept {
  switch (s) {
    case site::sched_enqueue: return "sched_enqueue";
    case site::worker_find_work: return "worker_find_work";
    case site::worker_pre_steal: return "worker_pre_steal";
    case site::worker_post_steal: return "worker_post_steal";
    case site::steal_victim: return "steal_victim";
    case site::deque_pop: return "deque_pop";
    case site::deque_steal: return "deque_steal";
    case site::mpsc_size_publish: return "mpsc_size_publish";
    case site::timer_deadline: return "timer_deadline";
    case site::timer_fire: return "timer_fire";
    case site::fiber_switch: return "fiber_switch";
    case site::net_transmit: return "net_transmit";
    case site::net_deliver: return "net_deliver";
    case site::fd_tick: return "fd_tick";
    case site::fd_confirm: return "fd_confirm";
    case site::policy_dequeue: return "policy_dequeue";
    case site::site_count: break;
  }
  return "unknown";
}

namespace {

char const* kind_name(perturbation_kind k) noexcept {
  switch (k) {
    case perturbation_kind::yield: return "yield";
    case perturbation_kind::spin: return "spin";
    case perturbation_kind::sleep: return "sleep";
    case perturbation_kind::flip: return "flip";
    case perturbation_kind::jitter: return "jitter";
  }
  return "unknown";
}

config g_config;  // written by enable() before g_active's release store
std::atomic<std::uint64_t> g_epoch{0};  // bumped by every enable()
std::atomic<std::uint64_t> g_run_decisions{0};
std::atomic<std::uint64_t> g_run_perturbations{0};

// Slots: workers reuse their (stable) worker index; auxiliary threads get
// 256 + a process-lifetime ordinal. The timer thread and the test main
// thread register early, so their ordinals are stable within a process.
constexpr std::uint32_t aux_slot_base = 256;
std::atomic<std::uint32_t> g_aux_ordinal{0};

std::uint32_t this_thread_slot() noexcept {
  thread_local std::uint32_t const slot = [] {
    if (rt::worker const* w = rt::worker::current())
      return static_cast<std::uint32_t>(w->index());
    return aux_slot_base + g_aux_ordinal.fetch_add(1,
                                                   std::memory_order_relaxed);
  }();
  return slot;
}

// Per-thread decision stream, re-seeded from (seed, slot) when the run
// epoch changes so every enable() starts each thread's stream from the same
// well-defined state.
struct thread_stream {
  std::uint64_t epoch = ~std::uint64_t{0};
  xoshiro256ss rng;
};

xoshiro256ss& this_thread_stream(std::uint64_t seed) {
  thread_local thread_stream ts;
  std::uint64_t const epoch = g_epoch.load(std::memory_order_acquire);
  if (ts.epoch != epoch) {
    ts.epoch = epoch;
    ts.rng = xoshiro256ss(seed ^ (std::uint64_t{this_thread_slot()} + 1) *
                                     0x9e3779b97f4a7c15ull);
  }
  return ts.rng;
}

// Applied-perturbation ring. Writes race benignly (distinct slots via the
// head counter; an overwritten entry under a concurrent read yields a stale
// but well-formed record) — this is failure evidence, not synchronization.
constexpr std::size_t trace_capacity = 8192;
trace_entry g_trace[trace_capacity];
std::atomic<std::uint64_t> g_trace_head{0};

void record(site s, perturbation_kind k) noexcept {
  std::uint64_t const i =
      g_trace_head.fetch_add(1, std::memory_order_relaxed);
  g_trace[i % trace_capacity] = trace_entry{
      s, k, static_cast<std::uint16_t>(this_thread_slot())};
}

// Charges one perturbation against the run budget; false when exhausted.
bool charge_budget() noexcept {
  if (g_run_perturbations.load(std::memory_order_relaxed) >=
      g_config.max_perturbations)
    return false;
  g_run_perturbations.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace

namespace detail {

std::atomic<bool> g_active{false};

bool decide_slow(site s) {
  (void)s;
  if (!g_active.load(std::memory_order_acquire)) return false;
  g_run_decisions.fetch_add(1, std::memory_order_relaxed);
  counters::builtin().torture_decisions.add();
  auto& rng = this_thread_stream(g_config.seed);
  if (rng.uniform() >= g_config.perturb_probability) return false;
  if (!charge_budget()) return false;
  record(s, perturbation_kind::flip);
  return true;
}

void point_slow(site s) {
  if (!g_active.load(std::memory_order_acquire)) return;
  g_run_decisions.fetch_add(1, std::memory_order_relaxed);
  counters::builtin().torture_decisions.add();
  auto& rng = this_thread_stream(g_config.seed);
  if (rng.uniform() >= g_config.perturb_probability) return;
  // Draw the perturbation shape from the stream *before* the budget check
  // so a budget-limited replay consumes the stream identically and every
  // thread's decision sequence stays a pure function of (seed, slot, index).
  std::uint64_t const shape = rng();
  if (!charge_budget()) return;
  switch (shape & 3) {
    case 0:
    case 1:
      record(s, perturbation_kind::yield);
      std::this_thread::yield();
      break;
    case 2: {
      record(s, perturbation_kind::spin);
      std::uint32_t const spins =
          g_config.max_spin == 0
              ? 0
              : static_cast<std::uint32_t>((shape >> 2) % g_config.max_spin);
      for (std::uint32_t i = 0; i < spins; ++i) cpu_relax();
      break;
    }
    default: {
      record(s, perturbation_kind::sleep);
      std::uint32_t const us =
          g_config.max_sleep_us == 0
              ? 0
              : static_cast<std::uint32_t>((shape >> 2) %
                                           g_config.max_sleep_us);
      std::this_thread::sleep_for(std::chrono::microseconds(us));
      break;
    }
  }
}

std::uint64_t jitter_slow(site s) {
  if (!g_active.load(std::memory_order_acquire)) return 0;
  g_run_decisions.fetch_add(1, std::memory_order_relaxed);
  counters::builtin().torture_decisions.add();
  auto& rng = this_thread_stream(g_config.seed);
  std::uint64_t const amplitude = g_config.timer_jitter_ns;
  if (amplitude == 0) return 0;
  std::uint64_t const j = rng.below(amplitude + 1);
  if (j == 0 || !charge_budget()) return 0;
  record(s, perturbation_kind::jitter);
  return j;
}

}  // namespace detail

void enable(config cfg) {
  PX_ASSERT_MSG(!active(), "torture::enable while a run is active");
  g_config = cfg;
  g_run_decisions.store(0, std::memory_order_relaxed);
  g_run_perturbations.store(0, std::memory_order_relaxed);
  g_trace_head.store(0, std::memory_order_relaxed);
  g_epoch.fetch_add(1, std::memory_order_release);
  detail::g_active.store(true, std::memory_order_release);
}

void disable() { detail::g_active.store(false, std::memory_order_release); }

config active_config() noexcept { return g_config; }

std::uint64_t current_seed() noexcept { return g_config.seed; }

std::uint64_t run_decisions() noexcept {
  return g_run_decisions.load(std::memory_order_relaxed);
}

std::uint64_t run_perturbations() noexcept {
  return g_run_perturbations.load(std::memory_order_relaxed);
}

std::vector<trace_entry> trace_tail(std::size_t max) {
  std::uint64_t const head = g_trace_head.load(std::memory_order_relaxed);
  std::size_t const stored =
      static_cast<std::size_t>(head < trace_capacity ? head : trace_capacity);
  std::size_t const n = stored < max ? stored : max;
  std::vector<trace_entry> out;
  out.reserve(n);
  // Oldest-first within the returned window.
  std::uint64_t const begin = head - n;
  for (std::uint64_t i = begin; i < head; ++i)
    out.push_back(g_trace[i % trace_capacity]);
  return out;
}

bool dump_failure_report(std::uint64_t seed, std::string const& message,
                         std::uint64_t min_perturbations,
                         std::string const& path) {
  std::string out = "{\"seed\":";
  out += std::to_string(seed);
  out += ",\"message\":\"";
  // Counter paths are escape-free by construction; the message is not —
  // flatten anything JSON-hostile.
  for (char c : message)
    out += (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
               ? '\''
               : c;
  out += "\",\"min_perturbations\":";
  out += std::to_string(min_perturbations);
  out += ",\"counters\":";
  out += counters::registry::instance().take_snapshot().to_json();
  out += ",\"perturbation_trace\":[";
  bool first = true;
  for (trace_entry const& e : trace_tail()) {
    if (!first) out += ',';
    first = false;
    out += "{\"site\":\"";
    out += site_name(e.s);
    out += "\",\"kind\":\"";
    out += kind_name(e.kind);
    out += "\",\"thread\":";
    out += std::to_string(e.thread_slot);
    out += '}';
  }
  out += "]}";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << out << '\n';
  return static_cast<bool>(f);
}

}  // namespace px::torture

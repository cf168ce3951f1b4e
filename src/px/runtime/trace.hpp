// px/runtime/trace.hpp
// Task-level tracing in the Chrome trace-event format (chrome://tracing /
// Perfetto "traceEvents"). When enabled, every task execution slice is
// recorded with its worker lane; the dump visualizes scheduling, stealing
// and suspension gaps — the observability layer behind the grain-size
// analyses of §VII-B.
//
// Recording goes to per-thread fixed-capacity rings (single writer each,
// merged at to_json() time), so concurrent workers never contend on a
// shared lock or vector — tracing perturbs the schedule it observes as
// little as possible. A ring that fills stops recording and counts the
// overflow in dropped_count(); rings never wrap, which is what makes
// cross-thread reads of a live ring safe.
//
// enable() starts a new recording *generation* rather than physically
// clearing anything: events from older generations become unreadable and
// their rings reusable. A slice spanning an enable() (its begin timestamp
// belongs to the previous generation's epoch) is dropped and counted, not
// emitted with a misleading timestamp.
//
// Off by default and designed so the disabled path costs one relaxed
// atomic load per task.
#pragma once

#include <cstdint>
#include <string>

namespace px::trace {

// Lane id under which slices recorded off any worker thread are emitted.
// to_json() names it "external" via a thread_name metadata event (worker
// lanes are named "worker #N"), so dumps distinguish it from a real worker.
inline constexpr std::uint32_t external_lane = 0xFFFFu;

// Starts recording into a fresh generation (prior events become invisible
// to event_count()/to_json() and their storage reusable).
void enable();
// Stops recording; events remain available until the next enable().
void disable();
[[nodiscard]] bool enabled() noexcept;

// The current recording generation; bumped by every enable(). Snapshot it
// alongside a begin timestamp and pass it to the generation-checked
// record_slice overload so slices spanning an enable() are discarded.
[[nodiscard]] std::uint32_t generation() noexcept;

// Records one complete slice (begin + duration). Thread-safe.
void record_slice(char const* name, std::uint64_t task_id,
                  std::uint64_t begin_us, std::uint64_t duration_us,
                  std::uint32_t worker_lane);

// Generation-checked variant: drops (and counts) the slice when `gen` no
// longer matches the current generation — i.e. the slice began before the
// latest enable() and its timestamps belong to a dead epoch.
void record_slice(char const* name, std::uint64_t task_id,
                  std::uint64_t begin_us, std::uint64_t duration_us,
                  std::uint32_t worker_lane, std::uint32_t gen);

// Events recorded in the current generation, summed over all rings.
[[nodiscard]] std::size_t event_count();

// Slices that were NOT recorded, ever (process-lifetime monotone): ring
// overflow plus enable/disable flips racing in-flight slices. Surfaced as
// the /px/trace/dropped counter; a nonzero delta across a measured region
// means the trace under-reports that region.
[[nodiscard]] std::uint64_t dropped_count() noexcept;

// Per-thread ring capacity (events) for rings created after the call; the
// default is 1<<15. Existing rings keep their size.
void set_ring_capacity(std::size_t events);

// Serializes everything recorded so far as a Chrome trace JSON document.
[[nodiscard]] std::string to_json();

// Convenience: write to_json() to a file; returns false on I/O failure.
bool write_json_file(std::string const& path);

// Microseconds since an arbitrary process-stable epoch (steady clock).
[[nodiscard]] std::uint64_t now_us() noexcept;

// User-annotated region: records one named slice covering the scope's
// lifetime on the current worker's lane (the named external lane when not
// on a worker). `name` must be a string literal or otherwise outlive the
// trace dump. A region alive across an enable() records nothing (counted
// in dropped_count()).
class scoped_region {
 public:
  explicit scoped_region(char const* name) noexcept;
  ~scoped_region();
  scoped_region(scoped_region const&) = delete;
  scoped_region& operator=(scoped_region const&) = delete;

 private:
  char const* name_;
  std::uint64_t begin_us_;
  std::uint32_t gen_;
  bool active_;
};

}  // namespace px::trace

// px/counters/counters.hpp
// Runtime-wide hierarchical performance-counter registry, in the HPX
// performance-counter style: every subsystem publishes its metrics under a
// slash-separated path such as
//
//     /px/scheduler{px/worker#3}/steals
//     /px/stacks{px}/pool_hits
//     /px/parcel/messages_sent
//     /px/trace/events
//
// Two counter kinds exist:
//   * monotone — a count that only ever grows (tasks spawned, steals,
//     parcels sent). Interval deltas are meaningful.
//   * gauge    — a level that moves both ways (active tasks, cached
//     stacks, pending timers). Snapshots report the instantaneous value.
//
// The design follows the same cost discipline trace.hpp documents: the hot
// path of a producer is one relaxed atomic op (counter::add), or zero when
// the subsystem already keeps its own state and publishes it through a pull
// callback evaluated only at snapshot time. Nothing on the increment path
// takes a lock or allocates; the registry mutex is touched only by
// registration (cold) and snapshotting (explicitly pull-based).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace px::counters {

enum class kind : std::uint8_t { monotone, gauge };

[[nodiscard]] char const* kind_name(kind k) noexcept;

// A counter cell owned by a subsystem (or by the registry's builtin block).
// All operations are relaxed atomics: values are monitoring data, never
// synchronization.
class counter {
 public:
  constexpr counter() noexcept = default;

  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::uint64_t n = 1) noexcept {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  void set(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// One sampled value in a snapshot.
struct sample {
  std::string path;
  kind k = kind::monotone;
  std::uint64_t value = 0;

  friend bool operator==(sample const& a, sample const& b) {
    return a.path == b.path && a.k == b.k && a.value == b.value;
  }
};

// A pull-based snapshot of the whole registry: every registered counter
// evaluated once, under a single pass, ordered by path.
struct snapshot {
  std::uint64_t timestamp_ns = 0;
  std::vector<sample> samples;

  // Value of `path`, or nullptr when absent.
  [[nodiscard]] sample const* find(std::string const& path) const noexcept;
  [[nodiscard]] bool contains(std::string const& path) const noexcept {
    return find(path) != nullptr;
  }

  // {"timestamp_ns":...,"counters":[{"path":"...","kind":"monotone",
  //  "value":N},...]} — one machine-readable document per snapshot.
  [[nodiscard]] std::string to_json() const;
  // Header "path,kind,value" then one row per sample. Paths never contain
  // commas or quotes, so no escaping is needed (enforced at registration).
  [[nodiscard]] std::string to_csv() const;
};

// Inverse of to_json()/to_csv(), for tooling that post-processes dumps.
// Accept exactly the documents this module emits; throw std::runtime_error
// on malformed input.
[[nodiscard]] snapshot parse_json(std::string const& text);
[[nodiscard]] snapshot parse_csv(std::string const& text);

// The difference between two snapshots of the same registry: monotone
// counters report end - begin (clamped at 0 for counters that vanished or
// reset), gauges report the end value. Paths only present in `end` appear
// with their full value.
[[nodiscard]] snapshot delta(snapshot const& begin, snapshot const& end);

class registry;

// RAII block of registrations: everything added through it is unregistered
// on destruction (or release()). Subsystems with dynamic lifetime — e.g.
// one scheduler per runtime — hold one of these so their paths disappear
// with them.
class registration {
 public:
  registration() = default;
  ~registration() { release(); }

  registration(registration const&) = delete;
  registration& operator=(registration const&) = delete;
  registration(registration&& other) noexcept
      : ids_(std::move(other.ids_)) {
    other.ids_.clear();
  }

  // Publish a subsystem-owned cell. The cell must outlive this block.
  void add(std::string path, kind k, counter const& cell);
  // Publish a pull callback evaluated at snapshot time. Must be cheap,
  // non-blocking, and must not call back into the registry.
  void add(std::string path, kind k, std::function<std::uint64_t()> read);

  void release() noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }

 private:
  std::vector<std::uint64_t> ids_;
};

// Process-wide counters owned by the registry itself, so they exist (at
// zero) from the first snapshot on even when the producing subsystem was
// never exercised. Producers bump them through the accessors below.
struct builtin_counters {
  counter parcel_messages_sent;   // /px/parcel/messages_sent
  counter parcel_bytes_sent;      // /px/parcel/bytes_sent
  counter parcels_delivered;      // /px/parcel/parcels_delivered
  counter parcel_orphan_responses;  // /px/parcel/orphan_responses
  counter net_messages;           // /px/net/messages
  counter net_bytes;              // /px/net/bytes
  // Modeled wire time in integer nanoseconds (fixed-point x1000 of the
  // fabric's microsecond figure) — the unit is in the path so sub-us
  // messages never truncate to zero.
  counter net_modeled_ns;         // /px/net/modeled_ns
  counter net_drops;              // /px/net/drops
  counter net_retransmits;        // /px/net/retransmits
  counter net_dup_suppressed;     // /px/net/dup_suppressed
  counter net_acks;               // /px/net/acks
  counter net_backoff_us;         // /px/net/backoff_us
  counter net_dead_letters;       // /px/net/dead_letters
  counter net_delivery_failures;  // /px/net/delivery_failures
  // Parcel coalescing (px/net/coalesce): wire frames actually injected
  // into the fabric (each traffic_counters::record call is one frame, so
  // this counts envelopes once regardless of how many logical parcels they
  // carry), logical parcels that travelled inside a coalesced envelope,
  // flushes broken down by trigger, and the compressor's in/out byte
  // totals. /px/net/compress_ratio_x1000 is a derived gauge published by
  // the registry: in*1000/out, 0 until anything compresses.
  counter net_frames_on_wire;     // /px/net/frames_on_wire
  counter net_coalesced_parcels;  // /px/net/coalesced_parcels
  counter net_flushes_size;       // /px/net/flushes_size
  counter net_flushes_deadline;   // /px/net/flushes_deadline
  counter net_flushes_explicit;   // /px/net/flushes_explicit
  counter net_compress_in_bytes;  // /px/net/compress_in_bytes
  counter net_compressed_bytes;   // /px/net/compressed_bytes
  counter timer_wakes;            // /px/timer/wakes_scheduled
  counter timer_cancelled;        // /px/timer/callbacks_cancelled
  // Schedule-exploration harness (px/torture): decision points consulted
  // and property-test seeds executed. Process-lifetime totals; per-run
  // figures come from torture::run_decisions() et al.
  counter torture_decisions;      // /px/torture/decisions
  counter torture_seeds_run;      // /px/torture/seeds_run
  // Locality-failure resilience (px/resilience + px/dist/failure_detector):
  // heartbeat frames sent, alive->suspect transitions, confirmed locality
  // deaths, task re-executions (async_replay), replicas spawned
  // (async_replicate*), bytes written into checkpoint stores, partitions
  // restored from a checkpoint, and frames dropped for carrying a stale
  // incarnation epoch (a restarted locality's reset seqs must never alias
  // the dedup window).
  counter resilience_heartbeats;        // /px/resilience/heartbeats
  counter resilience_suspects;          // /px/resilience/suspects
  counter resilience_confirms;          // /px/resilience/confirms
  counter resilience_replays;           // /px/resilience/replays
  counter resilience_replicas;          // /px/resilience/replicas
  counter resilience_checkpoint_bytes;  // /px/resilience/checkpoint_bytes
  counter resilience_restores;          // /px/resilience/restores
  counter resilience_stale_epoch_drops; // /px/resilience/stale_epoch_drops
  // AGAS migration (px/agas + px/dist/migration): committed migrations,
  // departures rolled back on a transport failure, parcels re-routed along
  // a forwarding tombstone, parcels parked against a `migrating` entry
  // until commit/abort, residence-cache hits/misses on the caller-side
  // component-routing path, component parcels delivered to a locality that
  // has neither a binding nor a tombstone for the target, and forwarding
  // tombstones created. All process-lifetime monotone totals; the torture
  // suite asserts their exactness on a fault-free domain.
  counter agas_migrations;        // /px/agas/migrations
  counter agas_migration_aborts;  // /px/agas/migration_aborts
  counter agas_forwards;          // /px/agas/forwards
  counter agas_parked;            // /px/agas/parked
  counter agas_cache_hits;        // /px/agas/cache_hits
  counter agas_cache_misses;      // /px/agas/cache_misses
  counter agas_resolve_misses;    // /px/agas/resolve_misses
  counter agas_tombstones;        // /px/agas/tombstones
  // Quorum membership (px/dist/membership): agreed-view advances (one per
  // membership-epoch bump), operations refused by a fenced minority
  // locality, SWIM-style indirect probe requests sent, suspicions averted
  // because a probe (or late heartbeat) proved the peer alive while a
  // probe round was outstanding, and fenced localities rejoining the
  // majority view after heal (plus confirmed-dead members re-admitted by
  // restart_locality).
  counter membership_views;                 // /px/membership/views
  counter membership_fenced_refusals;       // /px/membership/fenced_refusals
  counter membership_indirect_probes;       // /px/membership/indirect_probes
  counter membership_false_suspect_averted; // /px/membership/false_suspect_averted
  counter membership_rejoins;               // /px/membership/rejoins
};

class registry {
 public:
  static registry& instance();

  registry(registry const&) = delete;
  registry& operator=(registry const&) = delete;

  // Low-level registration; prefer the `registration` RAII block. Paths
  // must be non-empty, start with '/', and contain no '"', ',' or control
  // characters (so JSON/CSV emission never needs escaping); duplicates are
  // allowed in the API but snapshots keep one sample per path (last
  // registration wins), so producers should use unique_instance().
  std::uint64_t add(std::string path, kind k, counter const& cell);
  std::uint64_t add(std::string path, kind k,
                    std::function<std::uint64_t()> read);
  void remove(std::uint64_t id) noexcept;

  // Reserves a process-unique instance name derived from `base` for path
  // interpolation: first caller gets "base", later ones "base-2", "base-3",
  // ... Never reused, so paths from dead instances cannot be confused with
  // live ones inside one process run.
  [[nodiscard]] std::string unique_instance(std::string const& base);

  // Evaluates every registered counter once. Pull-based: this is the only
  // place callbacks run and the only read of producer cells.
  [[nodiscard]] snapshot take_snapshot() const;

  // Convenience point lookup (full snapshot under the hood — monitoring
  // cost, not hot-path cost). Returns false when the path is absent.
  [[nodiscard]] bool value_of(std::string const& path,
                              std::uint64_t& out) const;

  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] builtin_counters& builtin() noexcept { return builtin_; }

 private:
  registry();
  ~registry() = default;

  struct entry;
  struct impl;
  impl* self_;
  builtin_counters builtin_;
};

// Shorthand for registry::instance().builtin().
[[nodiscard]] builtin_counters& builtin();

// Interval sampling: captures a snapshot at construction; delta() reports
// what happened since (monotone deltas, current gauge levels). next() makes
// the sampler re-anchor so successive calls report disjoint intervals.
class interval_sampler {
 public:
  interval_sampler() : begin_(registry::instance().take_snapshot()) {}

  [[nodiscard]] snapshot delta() const {
    return counters::delta(begin_, registry::instance().take_snapshot());
  }
  snapshot next() {
    snapshot end = registry::instance().take_snapshot();
    snapshot d = counters::delta(begin_, end);
    begin_ = std::move(end);
    return d;
  }
  [[nodiscard]] snapshot const& begin() const noexcept { return begin_; }

 private:
  snapshot begin_;
};

// Convenience: snapshot the registry and write JSON to `path`; returns
// false on I/O failure (same contract as trace::write_json_file).
bool write_json_file(std::string const& path);

}  // namespace px::counters

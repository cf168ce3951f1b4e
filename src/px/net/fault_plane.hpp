// px/net/fault_plane.hpp
// Deterministic lossy-fabric fault injection. The paper's distributed
// results assume the runtime can hide interconnect misbehaviour; with a
// perfectly reliable in-process fabric the latency-hiding and recovery
// machinery is never exercised. The fault plane sits between the fabric's
// alpha-beta accounting and real frame scheduling: every frame put on the
// wire is sampled against seeded per-link probabilities and may be dropped,
// duplicated, held back so later frames overtake it, or delayed.
//
// Determinism: each ordered (src,dst) link owns its own PRNG stream seeded
// from `seed` and the link id, so the decision sequence on a link depends
// only on the seed and the order frames enter that link. Concurrent senders
// on one link still race for positions in the stream; end-to-end result
// determinism under faults is the reliability layer's job, not the fault
// plane's.
//
// Granularity: fate is sampled per *wire frame*. Under parcel coalescing
// (px/net/coalesce.hpp) one frame can carry many logical parcels, so a
// single drop decision loses a whole batch at once and a duplicate
// redelivers all of them — the per-parcel dedup windows are what turn that
// back into exactly-once delivery.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "px/support/random.hpp"
#include "px/support/spin.hpp"

namespace px::net {

struct fault_config {
  // Per-frame probabilities; mutually exclusive (at most one fault per
  // frame), so drop + duplicate + reorder + extra_delay must be <= 1.
  double drop = 0.0;         // frame silently discarded
  double duplicate = 0.0;    // frame delivered twice
  double reorder = 0.0;      // frame held back so later frames overtake it
  double extra_delay = 0.0;  // frame delayed without reordering intent

  // Real-time holds applied to reordered / delayed frames, on top of the
  // fabric's injected alpha-beta delay.
  double reorder_hold_us = 100.0;
  double extra_delay_us = 500.0;

  std::uint64_t seed = 0x5eedfab51c0ffeeull;

  [[nodiscard]] bool enabled() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || reorder > 0.0 ||
           extra_delay > 0.0;
  }

  // Worst-case real-time hold a frame can suffer (reorder or extra-delay
  // faults), 0 when neither can fire. The reliability layer folds this
  // into its RTT estimate so a held frame — late, not lost — does not
  // guarantee a spurious retransmit.
  [[nodiscard]] double max_hold_us() const noexcept {
    double h = 0.0;
    if (reorder > 0.0 && reorder_hold_us > h) h = reorder_hold_us;
    if (extra_delay > 0.0 && extra_delay_us > h) h = extra_delay_us;
    return h;
  }
};

// The fate of one frame. At most one of drop/duplicate is set; hold_ns is
// the extra real delay to add before delivery (reorder or extra-delay
// faults; also applies to the duplicate copy). delay_factor scales the
// fabric's injected delay (slow_by locality faults; 1.0 = no slowdown).
struct fault_decision {
  bool drop = false;
  bool duplicate = false;
  // True when `drop` comes from a locality fault (fail-stop or hang) or an
  // active partition: the frame went into a blackhole, not into the
  // link-fault lottery.
  bool blackholed = false;
  std::uint64_t hold_ns = 0;
  double delay_factor = 1.0;
};

// A group partition of the locality set: while active, every frame from
// side A to side B is blackholed; a symmetric partition also blackholes
// the B-to-A direction, an asymmetric one (symmetric = false) leaves it
// intact — the gray-failure shape where a node's inbound traffic vanishes
// while its own frames still get out (or vice versa). Localities absent
// from both sides are unaffected. A nonzero flap_period_steps alternates
// the partition between active and healed phases as the application step
// feed (advance_step) progresses: active for the first `flap_period_steps`
// steps after the trigger, healed for the next, and so on — the flaky
// commodity-interconnect behaviour the Arm cluster papers report.
struct partition_spec {
  std::vector<std::uint32_t> side_a;
  std::vector<std::uint32_t> side_b;
  bool symmetric = true;
  std::uint64_t flap_period_steps = 0;
};

// Decisions taken so far, for test assertions against counter deltas.
struct fault_stats {
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  std::uint64_t extra_delays = 0;
  std::uint64_t sampled = 0;
  // Frames swallowed because their source or destination locality is
  // fail-stopped or hung.
  std::uint64_t blackholed = 0;
  // Locality fault schedules whose trigger fired.
  std::uint64_t locality_faults_triggered = 0;
  // Frames swallowed by an active partition (counted in `blackholed` too).
  std::uint64_t partition_drops = 0;
  // Partition schedules whose activation trigger fired.
  std::uint64_t partitions_triggered = 0;
};

// How a locality currently looks to the wire.
enum class locality_health : std::uint8_t {
  alive,   // frames flow normally
  slowed,  // frames delayed by slow_factor (slow_by)
  hung,    // frames blackholed, but the locality is not declared dead
           // (revive() models recovery from a long stall)
  dead     // fail-stopped: frames blackholed, locality_dead() == true
};

class fault_plane {
 public:
  fault_plane() noexcept = default;
  explicit fault_plane(fault_config cfg);

  [[nodiscard]] bool enabled() const noexcept { return cfg_.enabled(); }
  [[nodiscard]] fault_config const& config() const noexcept { return cfg_; }

  // Samples the fate of one frame on the ordered (src,dst) link.
  // Thread-safe. A disabled plane returns the no-fault decision without
  // touching any RNG state.
  fault_decision sample(std::uint32_t src, std::uint32_t dst);

  [[nodiscard]] fault_stats stats() const noexcept;

  // ---- per-locality fault schedule -------------------------------------
  // Locality faults trigger deterministically when the observed progress
  // (application step via advance_step(), or cumulative modeled wire time
  // via advance_modeled_ns()) first reaches the scheduled threshold; from
  // then on every frame to or from the victim is blackholed (fail_stop,
  // hang) or slowed (slow_by). fail_stop additionally marks the locality
  // dead (locality_dead()), which the domain's failure machinery consults;
  // a hang looks identical on the wire but leaves that flag clear, so
  // detection must happen organically through heartbeat silence.

  void fail_stop_at_step(std::uint32_t loc, std::uint64_t step);
  void fail_stop_at_modeled_ns(std::uint32_t loc, std::uint64_t modeled_ns);
  void fail_stop_now(std::uint32_t loc);
  void hang_at_step(std::uint32_t loc, std::uint64_t step);
  void hang_at_modeled_ns(std::uint32_t loc, std::uint64_t modeled_ns);
  void hang_now(std::uint32_t loc);
  // Immediate: frames to/from `loc` have their injected delay multiplied
  // by `factor` (>= 1.0).
  void slow_by(std::uint32_t loc, double factor);
  // Clears the locality's fault state (restart / stall recovery). Pending
  // untriggered schedules for the locality are discarded too.
  void revive(std::uint32_t loc);

  // ---- partition schedule ----------------------------------------------
  // Partitions compose with locality faults and the link-fault lottery: a
  // frame is first checked against fail-stop/hang blackholes, then against
  // every active partition, and only a surviving frame enters the seeded
  // per-link fault sampling. Activation and heal ride the same progress
  // triggers as locality faults (advance_step / advance_modeled_ns).

  // Installs `spec`, active immediately. Returns an id for heal calls.
  std::uint64_t partition_now(partition_spec spec);
  // Installs `spec`, activating when the progress feed first reaches the
  // threshold (application step / cumulative modeled wire time).
  std::uint64_t partition_at_step(partition_spec spec, std::uint64_t step);
  std::uint64_t partition_at_modeled_ns(partition_spec spec,
                                        std::uint64_t modeled_ns);
  // Heals one partition (or every partition): frames flow again and any
  // pending activation or flap phase for it is discarded. Healing an
  // unknown or already-healed id is a no-op.
  void heal_partition(std::uint64_t id);
  void heal_partition_at_step(std::uint64_t id, std::uint64_t step);
  void heal_partition_at_modeled_ns(std::uint64_t id, std::uint64_t modeled_ns);
  void heal_all_partitions();

  // True when an active partition (in its active flap phase) currently
  // blackholes src -> dst frames.
  [[nodiscard]] bool partitioned(std::uint32_t src, std::uint32_t dst) const;
  // Installed partitions that are past their activation trigger and not yet
  // healed (flapping partitions count even in a healed phase).
  [[nodiscard]] std::size_t active_partitions() const;

  // Progress feeds for the schedule triggers. advance_step keeps the max
  // step observed; both are cheap when no schedule is pending.
  void advance_step(std::uint64_t step);
  void advance_modeled_ns(std::uint64_t total_modeled_ns);

  [[nodiscard]] locality_health health(std::uint32_t loc) const;
  [[nodiscard]] bool locality_dead(std::uint32_t loc) const {
    return health(loc) == locality_health::dead;
  }

 private:
  struct loc_fault {
    locality_health state = locality_health::alive;
    double slow_factor = 1.0;
  };
  struct schedule {
    std::uint32_t loc = 0;
    locality_health target = locality_health::dead;
    std::uint64_t at_step = ~std::uint64_t{0};
    std::uint64_t at_modeled_ns = ~std::uint64_t{0};
  };
  struct partition {
    std::uint64_t id = 0;
    std::uint64_t mask_a = 0;  // bit per locality on side A
    std::uint64_t mask_b = 0;
    bool symmetric = true;
    std::uint64_t flap_period_steps = 0;
    bool active = false;       // past the activation trigger, not healed
    std::uint64_t at_step = ~std::uint64_t{0};
    std::uint64_t at_modeled_ns = ~std::uint64_t{0};
    std::uint64_t heal_at_step = ~std::uint64_t{0};
    std::uint64_t heal_at_modeled_ns = ~std::uint64_t{0};
    std::uint64_t activated_step = 0;  // flap phase anchor
    // True when the flap phase (from the step feed) currently blackholes.
    [[nodiscard]] bool flap_active(std::uint64_t step) const noexcept {
      if (flap_period_steps == 0) return true;
      std::uint64_t const since = step >= activated_step
                                      ? step - activated_step
                                      : 0;
      return (since / flap_period_steps) % 2 == 0;
    }
    [[nodiscard]] bool blocks(std::uint32_t src, std::uint32_t dst,
                              std::uint64_t step) const noexcept {
      if (!active || !flap_active(step)) return false;
      auto bit = [](std::uint32_t loc) { return std::uint64_t{1} << loc; };
      if ((mask_a & bit(src)) != 0 && (mask_b & bit(dst)) != 0) return true;
      return symmetric && (mask_b & bit(src)) != 0 && (mask_a & bit(dst)) != 0;
    }
  };

  void add_schedule(schedule s);
  void set_health(std::uint32_t loc, locality_health h, double factor);
  void check_schedules_locked(std::uint64_t step, std::uint64_t modeled_ns);
  std::uint64_t add_partition(partition p);
  [[nodiscard]] static std::uint64_t side_mask(
      std::vector<std::uint32_t> const& side);

  fault_config cfg_{};
  mutable spinlock lock_;
  std::unordered_map<std::uint64_t, xoshiro256ss> streams_;
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> reorders_{0};
  std::atomic<std::uint64_t> extra_delays_{0};
  std::atomic<std::uint64_t> sampled_{0};
  std::atomic<std::uint64_t> blackholed_{0};
  std::atomic<std::uint64_t> triggered_{0};
  std::atomic<std::uint64_t> partition_drops_{0};
  std::atomic<std::uint64_t> partitions_triggered_{0};

  // Fast-path gates: sample()/advance_*() touch the maps only when set.
  std::atomic<bool> locality_faults_{false};
  std::atomic<std::uint64_t> pending_schedules_{0};
  std::atomic<std::uint64_t> partitions_installed_{0};
  std::atomic<std::uint64_t> max_step_{0};
  std::atomic<std::uint64_t> max_modeled_ns_{0};

  // Guarded by lock_.
  std::unordered_map<std::uint32_t, loc_fault> loc_state_;
  std::vector<schedule> schedules_;
  std::vector<partition> partitions_;
  std::uint64_t next_partition_id_ = 1;
};

}  // namespace px::net

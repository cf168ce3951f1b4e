// px/resilience/checkpoint.hpp
// In-memory checkpoint store: serialized application state keyed by
// (object, version). One store lives per locality (bound in its AGAS
// registry); a partition checkpoints its state into its *buddy* locality's
// store by shipping the bytes through an ordinary parcel action, so a
// fail-stopped locality's partitions survive in their buddies and can be
// restored onto a survivor (see the checkpoint_interval option of
// run_distributed_heat1d and docs/ARCHITECTURE.md §4.2). Deliberately dumb storage — the protocol
// (who checkpoints what, where, when, and how rollback works) belongs to
// the application layer on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "px/support/spin.hpp"

namespace px::resilience {

class checkpoint_store {
 public:
  // One stored checkpoint: `object` identifies what was saved (e.g. a
  // partition index), `version` orders saves of the same object (e.g. the
  // time step at which the snapshot was taken).
  struct entry {
    std::uint64_t object = 0;
    std::uint64_t version = 0;
    std::size_t bytes = 0;
  };

  // Saves `blob` for (object, version), replacing any previous save of the
  // same pair. Bytes written are accounted in
  // /px/resilience/checkpoint_bytes.
  void put(std::uint64_t object, std::uint64_t version,
           std::vector<std::byte> blob);

  [[nodiscard]] std::optional<std::vector<std::byte>> get(
      std::uint64_t object, std::uint64_t version) const;

  // All stored (object, version) pairs, unordered. The recovery driver
  // uses this to find the newest version every partition can roll back to.
  [[nodiscard]] std::vector<entry> entries() const;

  void clear();
  [[nodiscard]] std::size_t size() const;

 private:
  struct slot {
    std::uint64_t object;
    std::uint64_t version;
    std::vector<std::byte> blob;
  };

  mutable spinlock lock_;
  std::vector<slot> slots_;
};

}  // namespace px::resilience

// px/net/coalesce.hpp
// Parcel coalescing under the reliability layer (the hpx5
// coalesced_network.c design point): per-destination buffers pack many
// logical parcels into one wire frame, amortizing the fabric's per-message
// cost (latency + injection overhead), which on low-power Arm interconnects
// dominates fine-grained traffic. The load-bearing invariant:
//
//   reliability sees logical parcels, the wire sees frames.
//
// Sequence numbers, receiver dedup, acks, retransmission and incarnation
// stamping all operate on the logical parcels *inside* a coalesced frame;
// the frame itself is an unsequenced envelope whose fate (drop / duplicate
// / reorder / delay) is sampled once and applies to every parcel it
// carries. A dropped envelope is repaired per logical parcel by each
// parcel's own RTO; receiver dedup guarantees a retransmitted parcel that
// races a late envelope copy still delivers exactly once.
//
// Frame format (envelope payload; all integers little-endian):
//   u8  codec            0 = raw, 1 = lz (px/net/compress.hpp)
//   [codec 1 only] u32 raw_size, then the lz stream of the body
//   body:
//     u32 count
//     per parcel: u32 action, u64 response_token, u64 seq, u64 epoch,
//                 u64 gid_msb, u64 gid_lsb, u32 hops, u32 payload_size,
//                 payload
// source/dest are carried once by the envelope (a buffer is per ordered
// (src,dst) pair); epoch stays per-parcel because a locality restart can
// land between two parcels of one batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "px/parcel/parcel.hpp"

namespace px::net {

struct coalescing_config {
  bool enabled = false;

  // Flush policies, first to trigger wins: parcel-count threshold, byte
  // threshold (encoded size), and a modeled-time deadline armed when the
  // first parcel lands in an empty buffer (converted to real time through
  // the domain's injection scale; scale 0 runs the deadline at scale 1 so
  // accounting-only domains still batch). Explicit flushes — step/barrier
  // boundaries and every quiesce pass — are the third policy.
  std::size_t max_parcels = 16;
  std::size_t max_bytes = 16 * 1024;
  double flush_delay_us = 50.0;  // must be > 0: the deadline is the
                                 // backstop that bounds buffered latency

  // Optional payload compression of the coalesced body (px/net/compress).
  // Applied only when the body reaches compress_min_bytes and the lz
  // stream is actually smaller; the codec byte keeps raw frames free.
  bool compress = false;
  std::size_t compress_min_bytes = 64;
};

// Encoded size one parcel contributes to a coalesced body (subheader +
// payload); the byte-threshold flush policy sums these.
[[nodiscard]] std::size_t coalesced_parcel_bytes(
    parcel::parcel const& p) noexcept;

// Packs `batch` (same source/dest, at least one parcel) into one envelope
// frame. When `cfg.compress` qualifies, `compressed_in`/`compressed_out`
// receive the body's pre/post-compression byte counts (untouched when the
// frame ships raw).
[[nodiscard]] parcel::parcel encode_coalesced_frame(
    std::vector<parcel::parcel> const& batch, coalescing_config const& cfg,
    std::size_t* compressed_in = nullptr,
    std::size_t* compressed_out = nullptr);

// Unpacks an envelope back into the logical parcels it carries (in batch
// order). Throws std::runtime_error on a corrupt envelope.
[[nodiscard]] std::vector<parcel::parcel> decode_coalesced_frame(
    parcel::parcel const& envelope);

}  // namespace px::net

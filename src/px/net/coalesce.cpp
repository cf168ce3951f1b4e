#include "px/net/coalesce.hpp"

#include <cstring>
#include <stdexcept>

#include "px/net/compress.hpp"

namespace px::net {

namespace {

// Per-parcel subheader inside a coalesced body: action u32, response_token
// u64, seq u64, epoch u64, gid msb/lsb u64 each, hops u32, payload_size u32.
constexpr std::size_t subheader_bytes = 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4;

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  std::byte b[4];
  std::memcpy(b, &v, sizeof v);
  out.insert(out.end(), b, b + 4);
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  std::byte b[8];
  std::memcpy(b, &v, sizeof v);
  out.insert(out.end(), b, b + 8);
}

struct reader {
  std::byte const* p;
  std::size_t left;

  void need(std::size_t n) const {
    if (left < n)
      throw std::runtime_error("px::net::decode_coalesced_frame: truncated");
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    p += 8;
    left -= 8;
    return v;
  }
};

}  // namespace

std::size_t coalesced_parcel_bytes(parcel::parcel const& p) noexcept {
  return subheader_bytes + p.payload.size();
}

parcel::parcel encode_coalesced_frame(
    std::vector<parcel::parcel> const& batch, coalescing_config const& cfg,
    std::size_t* compressed_in, std::size_t* compressed_out) {
  if (batch.empty())
    throw std::runtime_error("px::net::encode_coalesced_frame: empty batch");

  std::vector<std::byte> body;
  std::size_t reserve = 4;
  for (auto const& p : batch) reserve += coalesced_parcel_bytes(p);
  body.reserve(reserve);
  put_u32(body, static_cast<std::uint32_t>(batch.size()));
  for (auto const& p : batch) {
    put_u32(body, p.action);
    put_u64(body, p.response_token);
    put_u64(body, p.seq);
    put_u64(body, p.epoch);
    put_u64(body, (static_cast<std::uint64_t>(p.target.locality()) << 32) |
                      p.target.birthplace());
    put_u64(body, p.target.id());
    put_u32(body, p.hops);
    put_u32(body, static_cast<std::uint32_t>(p.payload.size()));
    body.insert(body.end(), p.payload.begin(), p.payload.end());
  }

  parcel::parcel envelope;
  envelope.source = batch.front().source;
  envelope.dest = batch.front().dest;
  envelope.action = parcel::coalesced_action_id;
  // The envelope is unsequenced; its epoch echoes the first parcel's so
  // pre-delivery epoch filtering never outruns a per-parcel check.
  envelope.epoch = batch.front().epoch;

  if (cfg.compress && body.size() >= cfg.compress_min_bytes) {
    auto lz = lz_compress(body.data(), body.size());
    if (lz.size() + 4 < body.size()) {
      envelope.payload.reserve(1 + 4 + lz.size());
      envelope.payload.push_back(std::byte{1});
      put_u32(envelope.payload, static_cast<std::uint32_t>(body.size()));
      envelope.payload.insert(envelope.payload.end(), lz.begin(), lz.end());
      if (compressed_in) *compressed_in = body.size();
      if (compressed_out) *compressed_out = lz.size();
      return envelope;
    }
  }
  envelope.payload.reserve(1 + body.size());
  envelope.payload.push_back(std::byte{0});
  envelope.payload.insert(envelope.payload.end(), body.begin(), body.end());
  return envelope;
}

std::vector<parcel::parcel> decode_coalesced_frame(
    parcel::parcel const& envelope) {
  if (envelope.action != parcel::coalesced_action_id)
    throw std::runtime_error(
        "px::net::decode_coalesced_frame: not a coalesced envelope");
  if (envelope.payload.empty())
    throw std::runtime_error("px::net::decode_coalesced_frame: empty frame");

  auto const codec = static_cast<unsigned>(envelope.payload[0]);
  std::vector<std::byte> raw;  // keeps a decompressed body alive
  std::byte const* body = envelope.payload.data() + 1;
  std::size_t body_size = envelope.payload.size() - 1;
  if (codec == 1) {
    reader hdr{body, body_size};
    std::size_t const raw_size = hdr.u32();
    raw = lz_decompress(hdr.p, hdr.left, raw_size);
    body = raw.data();
    body_size = raw.size();
  } else if (codec != 0) {
    throw std::runtime_error("px::net::decode_coalesced_frame: bad codec");
  }

  reader r{body, body_size};
  std::size_t const count = r.u32();
  if (count == 0)
    throw std::runtime_error("px::net::decode_coalesced_frame: zero count");
  std::vector<parcel::parcel> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    parcel::parcel p;
    p.source = envelope.source;
    p.dest = envelope.dest;
    p.action = r.u32();
    p.response_token = r.u64();
    p.seq = r.u64();
    p.epoch = r.u64();
    std::uint64_t const msb = r.u64();
    std::uint64_t const lsb = r.u64();
    p.target = agas::gid{msb, lsb};
    p.hops = r.u32();
    std::size_t const len = r.u32();
    r.need(len);
    p.payload.assign(r.p, r.p + len);
    r.p += len;
    r.left -= len;
    out.push_back(std::move(p));
  }
  if (r.left != 0)
    throw std::runtime_error(
        "px::net::decode_coalesced_frame: trailing garbage");
  return out;
}

}  // namespace px::net

// px/serial/archive.hpp
// Byte-stream serialization for the parcel subsystem. Parcels carry action
// arguments between localities; everything crossing that boundary funnels
// through these archives.
//
// Supported out of the box: arithmetic types, enums, std::string,
// std::vector, std::array, std::pair, std::tuple, std::map,
// std::unordered_map, std::optional. User types provide either a member
//   template <class Archive> void serialize(Archive& ar);
// or an ADL free function serialize(Archive&, T&), both reading and writing
// through operator&.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace px::serial {

class output_archive;
class input_archive;

namespace detail {

template <typename T, typename Ar>
concept member_serializable = requires(T& v, Ar& ar) { v.serialize(ar); };

template <typename T, typename Ar>
concept adl_serializable = requires(T& v, Ar& ar) { serialize(ar, v); };

}  // namespace detail

class output_archive {
 public:
  static constexpr bool is_saving = true;

  void save_bytes(void const* data, std::size_t n) {
    auto const* p = static_cast<std::byte const*>(data);
    buffer_.insert(buffer_.end(), p, p + n);
  }

  template <typename T>
  output_archive& operator&(T const& value);

  // Capacity hint, so a payload whose size is known up front is written
  // into one allocation; writing past it still grows the buffer.
  void reserve(std::size_t n) { buffer_.reserve(n); }

  [[nodiscard]] std::vector<std::byte> take() { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

 private:
  std::vector<std::byte> buffer_;
};

class input_archive {
 public:
  static constexpr bool is_saving = false;

  explicit input_archive(std::span<std::byte const> data) : data_(data) {}

  void load_bytes(void* out, std::size_t n) {
    if (cursor_ + n > data_.size())
      throw std::runtime_error("px::serial: archive underflow");
    std::memcpy(out, data_.data() + cursor_, n);
    cursor_ += n;
  }

  template <typename T>
  input_archive& operator&(T& value);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - cursor_;
  }

 private:
  std::span<std::byte const> data_;
  std::size_t cursor_ = 0;
};

namespace detail {

// ---- trivial scalar leaves ------------------------------------------------

template <typename T>
  requires(std::is_arithmetic_v<T> || std::is_enum_v<T>)
void serialize_value(output_archive& ar, T const& v) {
  ar.save_bytes(&v, sizeof(v));
}

template <typename T>
  requires(std::is_arithmetic_v<T> || std::is_enum_v<T>)
void serialize_value(input_archive& ar, T& v) {
  ar.load_bytes(&v, sizeof(v));
}

// ---- strings ----------------------------------------------------------------

inline void serialize_value(output_archive& ar, std::string const& s) {
  std::uint64_t const n = s.size();
  ar.save_bytes(&n, sizeof(n));
  ar.save_bytes(s.data(), s.size());
}

inline void serialize_value(input_archive& ar, std::string& s) {
  std::uint64_t n = 0;
  ar.load_bytes(&n, sizeof(n));
  s.resize(n);
  ar.load_bytes(s.data(), n);
}

// ---- vectors -------------------------------------------------------------

template <typename T, typename Alloc>
void serialize_value(output_archive& ar, std::vector<T, Alloc> const& v) {
  std::uint64_t const n = v.size();
  ar.save_bytes(&n, sizeof(n));
  if constexpr (std::is_trivially_copyable_v<T>) {
    ar.save_bytes(v.data(), n * sizeof(T));
  } else {
    for (auto const& e : v) ar& e;
  }
}

template <typename T, typename Alloc>
void serialize_value(input_archive& ar, std::vector<T, Alloc>& v) {
  std::uint64_t n = 0;
  ar.load_bytes(&n, sizeof(n));
  v.resize(n);
  if constexpr (std::is_trivially_copyable_v<T>) {
    ar.load_bytes(v.data(), n * sizeof(T));
  } else {
    for (auto& e : v) ar& e;
  }
}

// ---- std::array ------------------------------------------------------------

template <typename T, std::size_t N, typename Ar>
void serialize_value(Ar& ar, std::array<T, N>& v) {
  for (auto& e : v) ar& e;
}
template <typename T, std::size_t N>
void serialize_value(output_archive& ar, std::array<T, N> const& v) {
  for (auto const& e : v) ar& e;
}

// ---- pair / tuple --------------------------------------------------------

template <typename A, typename B>
void serialize_value(output_archive& ar, std::pair<A, B> const& p) {
  ar& p.first& p.second;
}
template <typename A, typename B>
void serialize_value(input_archive& ar, std::pair<A, B>& p) {
  ar& p.first& p.second;
}

template <typename... Ts>
void serialize_value(output_archive& ar, std::tuple<Ts...> const& t) {
  std::apply([&](auto const&... e) { (void)(ar & ... & e); }, t);
}
template <typename... Ts>
void serialize_value(input_archive& ar, std::tuple<Ts...>& t) {
  std::apply([&](auto&... e) { (void)(ar & ... & e); }, t);
}

// ---- maps ---------------------------------------------------------------

template <typename Map>
void serialize_map_out(output_archive& ar, Map const& m) {
  std::uint64_t const n = m.size();
  ar.save_bytes(&n, sizeof(n));
  for (auto const& [k, v] : m) ar& k& v;
}

template <typename Map>
void serialize_map_in(input_archive& ar, Map& m) {
  std::uint64_t n = 0;
  ar.load_bytes(&n, sizeof(n));
  m.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    typename Map::key_type k;
    typename Map::mapped_type v;
    ar& k& v;
    m.emplace(std::move(k), std::move(v));
  }
}

template <typename K, typename V, typename C, typename A>
void serialize_value(output_archive& ar, std::map<K, V, C, A> const& m) {
  serialize_map_out(ar, m);
}
template <typename K, typename V, typename C, typename A>
void serialize_value(input_archive& ar, std::map<K, V, C, A>& m) {
  serialize_map_in(ar, m);
}
template <typename K, typename V, typename H, typename E, typename A>
void serialize_value(output_archive& ar,
                     std::unordered_map<K, V, H, E, A> const& m) {
  serialize_map_out(ar, m);
}
template <typename K, typename V, typename H, typename E, typename A>
void serialize_value(input_archive& ar,
                     std::unordered_map<K, V, H, E, A>& m) {
  serialize_map_in(ar, m);
}

// ---- optional ------------------------------------------------------------

template <typename T>
void serialize_value(output_archive& ar, std::optional<T> const& o) {
  std::uint8_t const has = o.has_value() ? 1 : 0;
  ar.save_bytes(&has, sizeof(has));
  if (o) ar&* o;
}
template <typename T>
void serialize_value(input_archive& ar, std::optional<T>& o) {
  std::uint8_t has = 0;
  ar.load_bytes(&has, sizeof(has));
  if (has != 0) {
    o.emplace();
    ar&* o;
  } else {
    o.reset();
  }
}

// ---- user types -----------------------------------------------------------

template <typename Ar, typename T>
  requires member_serializable<T, Ar>
void serialize_value(Ar& ar, T& v) {
  v.serialize(ar);
}

template <typename T>
  requires(member_serializable<T, output_archive>)
void serialize_value(output_archive& ar, T const& v) {
  const_cast<T&>(v).serialize(ar);  // saving does not mutate by convention
}

}  // namespace detail

template <typename T>
output_archive& output_archive::operator&(T const& value) {
  using detail::serialize_value;
  if constexpr (detail::adl_serializable<T, output_archive> &&
                !detail::member_serializable<T, output_archive>) {
    serialize(*this, const_cast<T&>(value));
  } else {
    serialize_value(*this, value);
  }
  return *this;
}

template <typename T>
input_archive& input_archive::operator&(T& value) {
  using detail::serialize_value;
  if constexpr (detail::adl_serializable<T, input_archive> &&
                !detail::member_serializable<T, input_archive>) {
    serialize(*this, value);
  } else {
    serialize_value(*this, value);
  }
  return *this;
}

// Convenience round-trip helpers.
template <typename T>
[[nodiscard]] std::vector<std::byte> to_bytes(T const& value) {
  output_archive ar;
  ar& value;
  return ar.take();
}

template <typename T>
[[nodiscard]] T from_bytes(std::span<std::byte const> bytes) {
  input_archive ar(bytes);
  T value{};
  ar& value;
  return value;
}

}  // namespace px::serial

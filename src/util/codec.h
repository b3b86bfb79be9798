// Field-list codec: one wire format per struct, stated once.
//
// A wire struct lists its fields in wire order,
//
//   static auto fields(auto& m) { return std::tie(m.id, m.partition, m.vote); }
//
// and encode()/decode() below walk that list with util::Writer/Reader, so
// the encoder and decoder cannot drift apart. A field's C++ type decides
// its encoding:
//
//   bool, 1-byte enums          u8
//   uint8/16/32/64, int64       little-endian at their width
//   std::string, Bytes,         varint length, then the bytes (a
//   SharedBytes                 SharedBytes decodes as a slice of the
//                               reader's owner buffer, if it has one)
//   std::vector<T>              varint count, then each element
//   std::pair<A, B>             A, then B
//   a struct with fields()      its fields, in order
//   a type with encode/decode   its own codec (KeySet)
//
// Decoding is bounds-checked like Reader: a short or malformed buffer
// throws CodecError. Formats whose layout depends on a field's value
// (PartTx) stay hand-written and may use this codec for their parts.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.h"

namespace sdur::util {

namespace codec_detail {

template <class T>
struct is_vector : std::false_type {};
template <class T, class A>
struct is_vector<std::vector<T, A>> : std::true_type {};

template <class T>
struct is_pair : std::false_type {};
template <class A, class B>
struct is_pair<std::pair<A, B>> : std::true_type {};

template <class T>
concept HasFields = requires(T& m) { T::fields(m); };

template <class T>
concept SelfCoded = requires(const T& m, Writer& w, Reader& r) {
  m.encode(w);
  { T::decode(r) } -> std::same_as<T>;
};

template <class T>
inline constexpr bool kUnsupported = false;

}  // namespace codec_detail

template <class T>
void encode(Writer& w, const T& v) {
  using namespace codec_detail;
  if constexpr (std::same_as<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "enums travel as one byte");
    w.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::same_as<T, std::uint8_t>) {
    w.u8(v);
  } else if constexpr (std::same_as<T, std::uint16_t>) {
    w.u16(v);
  } else if constexpr (std::same_as<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::same_as<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::same_as<T, std::int64_t>) {
    w.i64(v);
  } else if constexpr (std::same_as<T, std::string> || std::same_as<T, Bytes> ||
                       std::same_as<T, SharedBytes>) {
    w.bytes(v);
  } else if constexpr (is_vector<T>::value) {
    w.varint(v.size());
    for (const auto& e : v) util::encode(w, e);
  } else if constexpr (is_pair<T>::value) {
    util::encode(w, v.first);
    util::encode(w, v.second);
  } else if constexpr (HasFields<T>) {
    std::apply([&w](const auto&... f) { (util::encode(w, f), ...); }, T::fields(v));
  } else if constexpr (SelfCoded<T>) {
    v.encode(w);
  } else {
    static_assert(kUnsupported<T>, "no wire encoding for this type");
  }
}

template <class T>
void decode(Reader& r, T& v) {
  using namespace codec_detail;
  if constexpr (std::same_as<T, bool>) {
    v = r.u8() != 0;
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "enums travel as one byte");
    v = static_cast<T>(r.u8());
  } else if constexpr (std::same_as<T, std::uint8_t>) {
    v = r.u8();
  } else if constexpr (std::same_as<T, std::uint16_t>) {
    v = r.u16();
  } else if constexpr (std::same_as<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (std::same_as<T, std::uint64_t>) {
    v = r.u64();
  } else if constexpr (std::same_as<T, std::int64_t>) {
    v = r.i64();
  } else if constexpr (std::same_as<T, std::string>) {
    v = r.bytes();
  } else if constexpr (std::same_as<T, Bytes>) {
    r.bytes(v);
  } else if constexpr (std::same_as<T, SharedBytes>) {
    v = r.shared();
  } else if constexpr (is_vector<T>::value) {
    const std::uint64_t n = r.varint();
    // Every element takes at least one byte, so a larger count is
    // malformed; checking first keeps reserve() bounded by the buffer.
    if (n > r.remaining()) throw CodecError("element count exceeds buffer");
    v.clear();
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) util::decode(r, v.emplace_back());
  } else if constexpr (is_pair<T>::value) {
    util::decode(r, v.first);
    util::decode(r, v.second);
  } else if constexpr (HasFields<T>) {
    std::apply([&r](auto&... f) { (util::decode(r, f), ...); }, T::fields(v));
  } else if constexpr (SelfCoded<T>) {
    v = T::decode(r);
  } else {
    static_assert(kUnsupported<T>, "no wire encoding for this type");
  }
}

template <class T>
T decode(Reader& r) {
  T v{};
  util::decode(r, v);
  return v;
}

}  // namespace sdur::util

// Byte-buffer codec used for all wire messages.
//
// Every protocol message in this repository is encoded through Writer and
// decoded through Reader, so message formats are exercised end-to-end and
// wire sizes are measurable (e.g. to quantify the bloom-filter bandwidth
// saving the paper mentions in Section V).
//
// Encoding: little-endian fixed-width integers, LEB128 varints for counts,
// and length-prefixed byte strings. Decoding is bounds-checked; a malformed
// buffer throws CodecError rather than reading out of range.
//
// Message structs do not call these primitives by hand: each lists its
// fields once and util/codec.h generates both codec halves from that
// list. Hand-written formats (PartTx, KeySet, checkpoints) use them
// directly.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sdur::util {

using Bytes = std::vector<std::uint8_t>;

/// An immutable slice of a refcounted buffer: the same
/// shared_ptr<const Bytes> a sim::Payload holds, plus the span of it this
/// value covers. Copies share the buffer, so a value decoded from a
/// message stays a view of that message's bytes for as long as any copy
/// lives. Sound because nothing writes a buffer once it is sealed here.
class SharedBytes {
 public:
  SharedBytes() = default;
  /// Seals `b` into a buffer of its own (none when empty).
  SharedBytes(Bytes b)  // NOLINT(google-explicit-constructor): a value from fresh bytes
      : owner_(b.empty() ? nullptr : std::make_shared<const Bytes>(std::move(b))),
        data_(owner_ ? owner_->data() : nullptr),
        size_(owner_ ? owner_->size() : 0) {}
  /// The `n` bytes at `data`, which lie inside `owner`.
  SharedBytes(std::shared_ptr<const Bytes> owner, const std::uint8_t* data, std::size_t n)
      : owner_(std::move(owner)), data_(data), size_(n) {}

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint8_t* begin() const { return data_; }
  const std::uint8_t* end() const { return data_ + size_; }
  /// The buffer this slice lies in (may be null for an empty value).
  const std::shared_ptr<const Bytes>& owner() const { return owner_; }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.size_ == b.size_ &&
           (a.data_ == b.data_ || a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }

 private:
  std::shared_ptr<const Bytes> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Thrown by Reader when a buffer is truncated or malformed.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends primitive values to a growable byte buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { fixed(v, 2); }
  void u32(std::uint32_t v) { fixed(v, 4); }
  void u64(std::uint64_t v) { fixed(v, 8); }
  void i64(std::int64_t v) { fixed(static_cast<std::uint64_t>(v), 8); }

  /// LEB128 variable-width unsigned integer (used for counts/sizes).
  void varint(std::uint64_t v);

  /// Length-prefixed byte string.
  void bytes(std::string_view s);
  void bytes(std::span<const std::uint8_t> b);  // Bytes or SharedBytes

  /// Raw append without a length prefix (caller must know the size).
  void raw(const void* data, std::size_t n);

  std::size_t size() const { return buf_.size(); }
  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  void fixed(std::uint64_t v, int n) {
    const std::size_t old = buf_.size();
    ensure(static_cast<std::size_t>(n));
    buf_.resize(old + static_cast<std::size_t>(n));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(buf_.data() + old, &v, static_cast<std::size_t>(n));
    } else {
      for (int i = 0; i < n; ++i) {
        buf_[old + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
      }
    }
  }

  /// Grows capacity geometrically when `extra` more bytes won't fit.
  /// (A bare reserve(size+extra) per call would pin capacity to the exact
  /// size and make repeated appends quadratic.)
  void ensure(std::size_t extra) {
    const std::size_t need = buf_.size() + extra;
    if (need > buf_.capacity()) buf_.reserve(std::max(need, buf_.capacity() * 2));
  }

  Bytes buf_;
};

/// Bounds-checked sequential reader over an immutable byte span.
///
/// A reader may know the refcounted buffer it reads (its owner): then
/// shared() returns slices of that buffer instead of copies. The owner
/// must outlive the reader, as the bytes must for any reader.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t n) : data_(data), size_(n) {}
  explicit Reader(const Bytes& b) : Reader(b.data(), b.size()) {}
  /// Reads all of `*owner` (nothing when null), slicing shared() from it.
  explicit Reader(const std::shared_ptr<const Bytes>& owner)
      : data_(owner ? owner->data() : nullptr), size_(owner ? owner->size() : 0), owner_(&owner) {}
  /// Reads the slice `b`, slicing shared() from its buffer.
  explicit Reader(const SharedBytes& b) : data_(b.data()), size_(b.size()), owner_(&b.owner()) {}
  // The reader keeps a pointer to its owner: a temporary one would dangle.
  explicit Reader(std::shared_ptr<const Bytes>&&) = delete;
  explicit Reader(SharedBytes&&) = delete;

  std::uint8_t u8() { return static_cast<std::uint8_t>(fixed(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(fixed(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(fixed(4)); }
  std::uint64_t u64() { return fixed(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(fixed(8)); }

  std::uint64_t varint();
  std::string bytes();
  /// Same wire format, decoded straight into a byte buffer (no string
  /// round trip when the bytes become a message payload).
  void bytes(Bytes& out);
  /// Same wire format, returned as a view into the buffer (valid while the
  /// buffer is).
  std::string_view view();
  /// Same wire format, returned as a slice of the owner's buffer; a copy
  /// in a buffer of its own when the reader has no owner.
  SharedBytes shared();

  /// Reads n raw bytes without a length prefix.
  void raw(void* out, std::size_t n);

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  std::uint64_t fixed(int n);
  void need(std::size_t n) const {
    if (n > size_ - pos_) throw CodecError("truncated buffer");
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const std::shared_ptr<const Bytes>* owner_ = nullptr;
};

}  // namespace sdur::util

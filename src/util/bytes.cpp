#include "util/bytes.h"

#include <cstring>

namespace sdur::util {

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::bytes(std::string_view s) {
  ensure(s.size() + 10);  // worst-case varint prefix is 10 bytes
  varint(s.size());
  raw(s.data(), s.size());
}

void Writer::bytes(std::span<const std::uint8_t> b) {
  ensure(b.size() + 10);
  varint(b.size());
  raw(b.data(), b.size());
}

void Writer::raw(const void* data, std::size_t n) {
  ensure(n);
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1);
    std::uint8_t b = data_[pos_++];
    if (shift >= 64) throw CodecError("varint overflow");
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::string Reader::bytes() { return std::string(view()); }

void Reader::bytes(Bytes& out) {
  std::uint64_t n = varint();
  need(n);
  out.assign(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
}

std::string_view Reader::view() {
  std::uint64_t n = varint();
  need(n);
  std::string_view out(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return out;
}

SharedBytes Reader::shared() {
  const std::uint64_t n = varint();
  need(n);
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  if (n == 0) return {};
  if (owner_ != nullptr && *owner_) return SharedBytes(*owner_, p, n);
  return SharedBytes(Bytes(p, p + n));
}

void Reader::raw(void* out, std::size_t n) {
  need(n);
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
}

std::uint64_t Reader::fixed(int n) {
  need(static_cast<std::size_t>(n));
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += static_cast<std::size_t>(n);
  return v;
}

}  // namespace sdur::util

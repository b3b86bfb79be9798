// Wire message representation.
//
// A message is a 16-bit type tag plus an opaque encoded payload. Modules
// own disjoint tag ranges (documented below) so a single process can host
// several protocol layers (e.g. an SDUR server embedding a Paxos replica)
// and dispatch by tag.
//
// Zero-copy fabric: the payload is an immutable refcounted buffer
// (Payload). Copying a Message — broadcast fan-out, vote fan-out to peer
// partitions, capture in an in-flight delivery closure — bumps a refcount
// instead of duplicating the bytes, so a value is encoded exactly once no
// matter how many destinations receive it. Immutability is what makes the
// sharing sound: no writer exists after construction, so aliasing can
// never be observed (see DESIGN.md "Simulation fabric hot path").
//
// The sharing reaches past the message: a reader built over buffer()
// decodes util::SharedBytes fields as slices of it, so a Paxos value
// decoded from a Phase 2A is that message's buffer, held by every
// member's log and delivered from there without a copy.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/fabric_stats.h"
#include "util/bytes.h"
#include "util/codec.h"

namespace sdur::sim {

/// Message tag ranges by module:
///   1–19   Paxos (src/paxos/messages.h)
///   20–49  SDUR server-to-server and client (src/sdur/messages.h)
///   50–99  reserved for applications/tests
using MsgType = std::uint16_t;

/// Immutable, refcounted byte buffer backing Message payloads.
///
/// Construction takes ownership of a util::Bytes buffer; afterwards the
/// bytes are never mutated, so copies share the buffer (refcount bump).
/// For equivalence testing, sharing can be disabled process-wide
/// (set_buffer_sharing(false)): copies then deep-copy, byte-identical
/// simulated behavior either way — only the fabric counters differ.
class Payload {
 public:
  Payload() = default;
  explicit Payload(util::Bytes b)
      : buf_(b.empty() ? nullptr : std::make_shared<const util::Bytes>(std::move(b))) {}

  Payload(const Payload& o) { assign(o); }
  Payload& operator=(const Payload& o) {
    if (this != &o) assign(o);
    return *this;
  }
  Payload(Payload&&) noexcept = default;
  Payload& operator=(Payload&&) noexcept = default;

  std::size_t size() const { return buf_ ? buf_->size() : 0; }
  bool empty() const { return size() == 0; }
  const std::uint8_t* data() const { return buf_ ? buf_->data() : nullptr; }
  std::uint8_t operator[](std::size_t i) const { return (*buf_)[i]; }

  const util::Bytes& bytes() const {
    static const util::Bytes kEmpty;
    return buf_ ? *buf_ : kEmpty;
  }
  /// Lets util::Reader (and legacy call sites) see the payload as Bytes.
  operator const util::Bytes&() const { return bytes(); }  // NOLINT(google-explicit-constructor)
  /// The refcounted buffer itself (null when empty): a util::Reader over it
  /// decodes SharedBytes fields as slices that keep it alive.
  const std::shared_ptr<const util::Bytes>& buffer() const { return buf_; }

  /// TEST KNOB — turns buffer sharing off (copies deep-copy) so the
  /// golden-digest equivalence test can prove sharing never changes
  /// simulated results. Sharing is ON by default.
  static void set_buffer_sharing(bool on) { sharing_enabled() = on; }
  static bool buffer_sharing() { return sharing_enabled(); }

 private:
  static bool& sharing_enabled() {
    static bool on = true;
    return on;
  }

  void assign(const Payload& o) {
    if (!o.buf_) {
      buf_ = nullptr;
    } else if (sharing_enabled()) {
      buf_ = o.buf_;
      SDUR_FABRIC_COUNT(payload_shares += 1);
    } else {
      buf_ = std::make_shared<const util::Bytes>(*o.buf_);
      SDUR_FABRIC_COUNT(payload_deep_copies += 1);
      SDUR_FABRIC_COUNT(payload_bytes_copied += o.buf_->size());
    }
  }

  std::shared_ptr<const util::Bytes> buf_;
};

struct Message {
  MsgType type = 0;
  Payload payload;

  Message() = default;
  Message(MsgType t, util::Bytes p) : type(t), payload(std::move(p)) {}
  Message(MsgType t, util::Writer&& w) : type(t), payload(std::move(w).take()) {}
  Message(MsgType t, Payload p) : type(t), payload(std::move(p)) {}

  /// Approximate wire size (payload + small header), used for bandwidth
  /// accounting.
  std::size_t wire_size() const { return payload.size() + 8; }
};

/// Encodes `m` through its field list (util/codec.h) into a message of
/// type `type` — the body of every field-list message's to_message().
template <class M>
Message encode_message(MsgType type, const M& m) {
  util::Writer w;
  util::encode(w, m);
  return {type, std::move(w)};
}

}  // namespace sdur::sim

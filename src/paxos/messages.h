// Paxos wire messages (tag range 1-19).
//
// Each struct lists its wire fields once, in wire order (fields()); the
// encoder and decoder are both generated from that list (util/codec.h).
// The engine decodes on receipt, through the payload's buffer, so every
// Value field is a slice of the message that carried it, not a copy.
// Values are opaque byte strings supplied by the layer above (SDUR encodes
// transactions into them).
#pragma once

#include <tuple>
#include <vector>

#include "paxos/types.h"
#include "sim/message.h"

namespace sdur::paxos {

namespace msgtype {
constexpr sim::MsgType kPhase1A = 1;
constexpr sim::MsgType kPhase1B = 2;
constexpr sim::MsgType kPhase2A = 3;
constexpr sim::MsgType kPhase2B = 4;
constexpr sim::MsgType kNack = 5;
constexpr sim::MsgType kHeartbeat = 6;
constexpr sim::MsgType kForward = 7;
constexpr sim::MsgType kCatchupReq = 8;
constexpr sim::MsgType kCatchupResp = 9;
constexpr sim::MsgType kStateTransfer = 10;
constexpr sim::MsgType kFirst = kPhase1A;
constexpr sim::MsgType kLast = kStateTransfer;
}  // namespace msgtype

/// An accepted (instance, ballot, value) triple, reported in Phase 1B.
struct AcceptedEntry {
  InstanceId instance = 0;
  Ballot ballot;
  Value value;

  static auto fields(auto& m) { return std::tie(m.instance, m.ballot, m.value); }
};

struct Phase1A {
  Ballot ballot;
  InstanceId low_instance = 0;  // report accepted entries >= this

  static auto fields(auto& m) { return std::tie(m.ballot, m.low_instance); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kPhase1A, *this); }
  static Phase1A decode(util::Reader& r) { return util::decode<Phase1A>(r); }
};

struct Phase1B {
  Ballot ballot;                       // the promise
  InstanceId next_deliver = 0;         // acceptor's decided prefix
  std::vector<AcceptedEntry> entries;  // accepted at >= low_instance

  static auto fields(auto& m) { return std::tie(m.ballot, m.next_deliver, m.entries); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kPhase1B, *this); }
  static Phase1B decode(util::Reader& r) { return util::decode<Phase1B>(r); }
};

struct Phase2A {
  Ballot ballot;
  InstanceId instance = 0;
  Value value;

  static auto fields(auto& m) { return std::tie(m.ballot, m.instance, m.value); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kPhase2A, *this); }
  static Phase2A decode(util::Reader& r) { return util::decode<Phase2A>(r); }
};

struct Phase2B {
  Ballot ballot;
  InstanceId instance = 0;
  std::uint32_t acceptor_index = 0;

  static auto fields(auto& m) { return std::tie(m.ballot, m.instance, m.acceptor_index); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kPhase2B, *this); }
  static Phase2B decode(util::Reader& r) { return util::decode<Phase2B>(r); }
};

/// Rejection carrying the highest promised ballot, so a stale proposer can
/// pick a higher round.
struct Nack {
  Ballot promised;

  static auto fields(auto& m) { return std::tie(m.promised); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kNack, *this); }
  static Nack decode(util::Reader& r) { return util::decode<Nack>(r); }
};

struct Heartbeat {
  Ballot ballot;
  InstanceId decided_upto = 0;  // leader's contiguous decided prefix

  static auto fields(auto& m) { return std::tie(m.ballot, m.decided_upto); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kHeartbeat, *this); }
  static Heartbeat decode(util::Reader& r) { return util::decode<Heartbeat>(r); }
};

/// A client value forwarded to the (believed) leader.
struct Forward {
  Value value;

  static auto fields(auto& m) { return std::tie(m.value); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kForward, *this); }
  static Forward decode(util::Reader& r) { return util::decode<Forward>(r); }
};

struct CatchupReq {
  InstanceId from_instance = 0;

  static auto fields(auto& m) { return std::tie(m.from_instance); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kCatchupReq, *this); }
  static CatchupReq decode(util::Reader& r) { return util::decode<CatchupReq>(r); }
};

struct CatchupResp {
  InstanceId first_instance = 0;
  std::vector<Value> values;  // decided values, contiguous from first_instance

  static auto fields(auto& m) { return std::tie(m.first_instance, m.values); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kCatchupResp, *this); }
  static CatchupResp decode(util::Reader& r) { return util::decode<CatchupResp>(r); }
};

/// A full application checkpoint shipped to a replica that fell behind a
/// log truncation point: "install this state, then resume delivery at
/// `resume_at`".
struct StateTransfer {
  InstanceId resume_at = 0;
  Value app_state;

  static auto fields(auto& m) { return std::tie(m.resume_at, m.app_state); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kStateTransfer, *this); }
  static StateTransfer decode(util::Reader& r) { return util::decode<StateTransfer>(r); }
};

/// Batch helpers: a Paxos value proposed by the leader is a batch of client
/// values (possibly empty = no-op used for gap filling). The decoded items
/// are slices of the batch's buffer.
util::Bytes encode_batch(const std::vector<Value>& values);
std::vector<Value> decode_batch(const Value& batch);

}  // namespace sdur::paxos

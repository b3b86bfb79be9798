// SDUR client/server and server/server wire messages (tag range 20-49).
//
// Each struct lists its wire fields once, in wire order (fields()); the
// encoder and decoder are both generated from that list (util/codec.h).
#pragma once

#include <tuple>
#include <vector>

#include "sdur/transaction.h"
#include "sim/message.h"

namespace sdur {

namespace msgtype {
constexpr sim::MsgType kCommitReq = 20;    // client -> contact server
constexpr sim::MsgType kOutcome = 21;      // contact server -> client
constexpr sim::MsgType kReadReq = 22;      // client -> server
constexpr sim::MsgType kReadResp = 23;     // server -> client
constexpr sim::MsgType kReadRouted = 24;   // server -> server (key not local)
constexpr sim::MsgType kVote = 25;         // server -> servers of other partitions
constexpr sim::MsgType kGossipSC = 26;     // server -> servers of other partitions
constexpr sim::MsgType kSnapshotReq = 27;  // client -> server (read-only txn)
constexpr sim::MsgType kSnapshotResp = 28; // server -> client
constexpr sim::MsgType kVoteRequest = 29;  // server -> servers of a silent partition
constexpr sim::MsgType kVoteBatch = 30;    // server -> servers of other partitions (N votes)
constexpr sim::MsgType kVotePiggyback = 31;  // envelope: votes riding on another message
constexpr sim::MsgType kFirst = kCommitReq;
constexpr sim::MsgType kLast = kVotePiggyback;
}  // namespace msgtype

struct CommitReqMsg {
  Transaction tx;

  static auto fields(auto& m) { return std::tie(m.tx); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kCommitReq, *this); }
  static CommitReqMsg decode(util::Reader& r) { return util::decode<CommitReqMsg>(r); }
};

struct OutcomeMsg {
  TxId id = 0;
  Outcome outcome = Outcome::kUnknown;

  static auto fields(auto& m) { return std::tie(m.id, m.outcome); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kOutcome, *this); }
  static OutcomeMsg decode(util::Reader& r) { return util::decode<OutcomeMsg>(r); }
};

struct ReadReqMsg {
  std::uint64_t reqid = 0;  // echoed back so clients can issue parallel reads
  Key key = 0;
  Version snapshot = kNoSnapshot;  // bottom on the first read at a partition

  static auto fields(auto& m) { return std::tie(m.reqid, m.key, m.snapshot); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kReadReq, *this); }
  static ReadReqMsg decode(util::Reader& r) { return util::decode<ReadReqMsg>(r); }
};

struct ReadRespMsg {
  std::uint64_t reqid = 0;
  Key key = 0;
  bool found = false;
  std::string value;
  Version snapshot = kNoSnapshot;  // snapshot the read executed at

  static auto fields(auto& m) { return std::tie(m.reqid, m.key, m.found, m.value, m.snapshot); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kReadResp, *this); }
  static ReadRespMsg decode(util::Reader& r) { return util::decode<ReadRespMsg>(r); }
};

/// Server-to-server read routing (Section V: clients connect to a single
/// server; reads for remote partitions are routed). The remote server
/// answers the client directly.
struct ReadRoutedMsg {
  std::uint64_t reqid = 0;
  sim::ProcessId client = 0;
  Key key = 0;
  Version snapshot = kNoSnapshot;

  static auto fields(auto& m) { return std::tie(m.reqid, m.client, m.key, m.snapshot); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kReadRouted, *this); }
  static ReadRoutedMsg decode(util::Reader& r) { return util::decode<ReadRoutedMsg>(r); }
};

/// A partition's certification vote for a global transaction.
struct VoteMsg {
  TxId id = 0;
  PartitionId partition = 0;
  Outcome vote = Outcome::kUnknown;

  static auto fields(auto& m) { return std::tie(m.id, m.partition, m.vote); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kVote, *this); }
  static VoteMsg decode(util::Reader& r) { return util::decode<VoteMsg>(r); }
};

/// One (transaction, vote) pair inside a batched vote message.
struct VoteBatchEntry {
  TxId id = 0;
  Outcome vote = Outcome::kUnknown;

  static auto fields(auto& m) { return std::tie(m.id, m.vote); }
};

/// A partition's certification votes for several global transactions,
/// coalesced by the vote batcher (src/sdur/server.cpp): one wide-area
/// message replaces up to Server::kVoteBatchMax per-transaction VoteMsg unicasts
/// to the same destination partition.
struct VoteBatchMsg {
  PartitionId partition = 0;
  std::vector<VoteBatchEntry> votes;

  static auto fields(auto& m) { return std::tie(m.partition, m.votes); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kVoteBatch, *this); }
  static VoteBatchMsg decode(util::Reader& r) { return util::decode<VoteBatchMsg>(r); }
};

/// Envelope: pending outgoing votes piggybacked on a message already
/// headed to a server of the destination partition (snapshot-counter
/// gossip, vote-resend liveness traffic, cross-partition Paxos forwards).
/// The receiver applies the votes, then dispatches the inner message as if
/// it had arrived alone — so under load most votes cost zero extra
/// wide-area messages.
struct VotePiggybackMsg {
  sim::MsgType inner_type = 0;
  util::Bytes inner_payload;
  VoteBatchMsg batch;

  static auto fields(auto& m) { return std::tie(m.inner_type, m.inner_payload, m.batch); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kVotePiggyback, *this); }
  static VotePiggybackMsg decode(util::Reader& r) { return util::decode<VotePiggybackMsg>(r); }
};

/// Asks a partition to resend its vote for a pending global transaction
/// (used by replicas that lost their vote table in a crash, and as a
/// general lost-vote repair).
struct VoteRequestMsg {
  TxId id = 0;

  static auto fields(auto& m) { return std::tie(m.id); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kVoteRequest, *this); }
  static VoteRequestMsg decode(util::Reader& r) { return util::decode<VoteRequestMsg>(r); }
};

/// Asynchronous snapshot-counter gossip used to build globally-consistent
/// snapshots for read-only transactions (Section III-A).
struct GossipSCMsg {
  PartitionId partition = 0;
  Version sc = 0;

  static auto fields(auto& m) { return std::tie(m.partition, m.sc); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kGossipSC, *this); }
  static GossipSCMsg decode(util::Reader& r) { return util::decode<GossipSCMsg>(r); }
};

struct SnapshotReqMsg {
  std::uint64_t reqid = 0;

  static auto fields(auto& m) { return std::tie(m.reqid); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kSnapshotReq, *this); }
  static SnapshotReqMsg decode(util::Reader& r) { return util::decode<SnapshotReqMsg>(r); }
};

struct SnapshotRespMsg {
  std::uint64_t reqid = 0;
  std::vector<Version> snapshot;  // one entry per partition

  static auto fields(auto& m) { return std::tie(m.reqid, m.snapshot); }
  sim::Message to_message() const { return sim::encode_message(msgtype::kSnapshotResp, *this); }
  static SnapshotRespMsg decode(util::Reader& r) { return util::decode<SnapshotRespMsg>(r); }
};

}  // namespace sdur

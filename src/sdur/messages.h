// SDUR client/server and server/server wire messages (tag range 20-49).
#pragma once

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

  sim::Message to_message() const;
  static CommitReqMsg decode(util::Reader& r);
};

struct OutcomeMsg {
  TxId id = 0;
  Outcome outcome = Outcome::kUnknown;

  sim::Message to_message() const;
  static OutcomeMsg decode(util::Reader& r);
};

struct ReadReqMsg {
  std::uint64_t reqid = 0;  // echoed back so clients can issue parallel reads
  Key key = 0;
  Version snapshot = kNoSnapshot;  // bottom on the first read at a partition

  sim::Message to_message() const;
  static ReadReqMsg decode(util::Reader& r);
};

struct ReadRespMsg {
  std::uint64_t reqid = 0;
  Key key = 0;
  bool found = false;
  std::string value;
  Version snapshot = kNoSnapshot;  // snapshot the read executed at

  sim::Message to_message() const;
  static ReadRespMsg decode(util::Reader& r);
};

/// Server-to-server read routing (Section V: clients connect to a single
/// server; reads for remote partitions are routed). The remote server
/// answers the client directly.
struct ReadRoutedMsg {
  std::uint64_t reqid = 0;
  sim::ProcessId client = 0;
  Key key = 0;
  Version snapshot = kNoSnapshot;

  sim::Message to_message() const;
  static ReadRoutedMsg decode(util::Reader& r);
};

/// A partition's certification vote for a global transaction.
struct VoteMsg {
  TxId id = 0;
  PartitionId partition = 0;
  Outcome vote = Outcome::kUnknown;

  sim::Message to_message() const;
  static VoteMsg decode(util::Reader& r);
};

/// One (transaction, vote) pair inside a batched vote message.
struct VoteBatchEntry {
  TxId id = 0;
  Outcome vote = Outcome::kUnknown;
};

/// A partition's certification votes for several global transactions,
/// coalesced by the vote batcher (src/sdur/server.cpp): one wide-area
/// message replaces up to vote_batch_max per-transaction VoteMsg unicasts
/// to the same destination partition.
struct VoteBatchMsg {
  PartitionId partition = 0;
  std::vector<VoteBatchEntry> votes;

  sim::Message to_message() const;
  static VoteBatchMsg decode(util::Reader& r);
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

  sim::Message to_message() const;
  static VotePiggybackMsg decode(util::Reader& r);
};

/// Asks a partition to resend its vote for a pending global transaction
/// (used by replicas that lost their vote table in a crash, and as a
/// general lost-vote repair).
struct VoteRequestMsg {
  TxId id = 0;

  sim::Message to_message() const;
  static VoteRequestMsg decode(util::Reader& r);
};

/// Asynchronous snapshot-counter gossip used to build globally-consistent
/// snapshots for read-only transactions (Section III-A).
struct GossipSCMsg {
  PartitionId partition = 0;
  Version sc = 0;

  sim::Message to_message() const;
  static GossipSCMsg decode(util::Reader& r);
};

struct SnapshotReqMsg {
  std::uint64_t reqid = 0;

  sim::Message to_message() const;
  static SnapshotReqMsg decode(util::Reader& r);
};

struct SnapshotRespMsg {
  std::uint64_t reqid = 0;
  std::vector<Version> snapshot;  // one entry per partition

  sim::Message to_message() const;
  static SnapshotRespMsg decode(util::Reader& r);
};

}  // namespace sdur

#include "sdur/messages.h"

namespace sdur {

using sim::Message;
using util::Reader;
using util::Writer;

namespace {

/// Shared (tx_id, vote)-list codec of VoteBatchMsg and the piggyback
/// envelope: varint count, then one (u64 id, u8 vote) pair per vote.
void put_votes(Writer& w, const std::vector<VoteBatchEntry>& votes) {
  w.varint(votes.size());
  for (const VoteBatchEntry& e : votes) {
    w.u64(e.id);
    w.u8(static_cast<std::uint8_t>(e.vote));
  }
}

std::vector<VoteBatchEntry> get_votes(Reader& r) {
  std::vector<VoteBatchEntry> out;
  const std::uint64_t n = r.varint();
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    VoteBatchEntry e;
    e.id = r.u64();
    e.vote = static_cast<Outcome>(r.u8());
    out.push_back(e);
  }
  return out;
}

}  // namespace

Message CommitReqMsg::to_message() const {
  Writer w;
  tx.encode(w);
  return {msgtype::kCommitReq, std::move(w)};
}

CommitReqMsg CommitReqMsg::decode(Reader& r) { return CommitReqMsg{Transaction::decode(r)}; }

Message OutcomeMsg::to_message() const {
  Writer w;
  w.u64(id);
  w.u8(static_cast<std::uint8_t>(outcome));
  return {msgtype::kOutcome, std::move(w)};
}

OutcomeMsg OutcomeMsg::decode(Reader& r) {
  OutcomeMsg m;
  m.id = r.u64();
  m.outcome = static_cast<Outcome>(r.u8());
  return m;
}

Message ReadReqMsg::to_message() const {
  Writer w;
  w.u64(reqid);
  w.u64(key);
  w.i64(snapshot);
  return {msgtype::kReadReq, std::move(w)};
}

ReadReqMsg ReadReqMsg::decode(Reader& r) {
  ReadReqMsg m;
  m.reqid = r.u64();
  m.key = r.u64();
  m.snapshot = r.i64();
  return m;
}

Message ReadRespMsg::to_message() const {
  Writer w;
  w.u64(reqid);
  w.u64(key);
  w.u8(found ? 1 : 0);
  w.bytes(value);
  w.i64(snapshot);
  return {msgtype::kReadResp, std::move(w)};
}

ReadRespMsg ReadRespMsg::decode(Reader& r) {
  ReadRespMsg m;
  m.reqid = r.u64();
  m.key = r.u64();
  m.found = r.u8() != 0;
  m.value = r.bytes();
  m.snapshot = r.i64();
  return m;
}

Message ReadRoutedMsg::to_message() const {
  Writer w;
  w.u64(reqid);
  w.u32(client);
  w.u64(key);
  w.i64(snapshot);
  return {msgtype::kReadRouted, std::move(w)};
}

ReadRoutedMsg ReadRoutedMsg::decode(Reader& r) {
  ReadRoutedMsg m;
  m.reqid = r.u64();
  m.client = r.u32();
  m.key = r.u64();
  m.snapshot = r.i64();
  return m;
}

Message VoteMsg::to_message() const {
  Writer w;
  w.u64(id);
  w.u32(partition);
  w.u8(static_cast<std::uint8_t>(vote));
  return {msgtype::kVote, std::move(w)};
}

VoteMsg VoteMsg::decode(Reader& r) {
  VoteMsg m;
  m.id = r.u64();
  m.partition = r.u32();
  m.vote = static_cast<Outcome>(r.u8());
  return m;
}

Message VoteBatchMsg::to_message() const {
  Writer w;
  w.u32(partition);
  put_votes(w, votes);
  return {msgtype::kVoteBatch, std::move(w)};
}

VoteBatchMsg VoteBatchMsg::decode(Reader& r) {
  VoteBatchMsg m;
  m.partition = r.u32();
  m.votes = get_votes(r);
  return m;
}

Message VotePiggybackMsg::to_message() const {
  Writer w;
  w.u16(inner_type);
  w.bytes(inner_payload);
  w.u32(batch.partition);
  put_votes(w, batch.votes);
  return {msgtype::kVotePiggyback, std::move(w)};
}

VotePiggybackMsg VotePiggybackMsg::decode(Reader& r) {
  VotePiggybackMsg m;
  m.inner_type = r.u16();
  r.bytes(m.inner_payload);
  m.batch.partition = r.u32();
  m.batch.votes = get_votes(r);
  return m;
}

Message VoteRequestMsg::to_message() const {
  Writer w;
  w.u64(id);
  return {msgtype::kVoteRequest, std::move(w)};
}

VoteRequestMsg VoteRequestMsg::decode(Reader& r) {
  VoteRequestMsg m;
  m.id = r.u64();
  return m;
}

Message GossipSCMsg::to_message() const {
  Writer w;
  w.u32(partition);
  w.i64(sc);
  return {msgtype::kGossipSC, std::move(w)};
}

GossipSCMsg GossipSCMsg::decode(Reader& r) {
  GossipSCMsg m;
  m.partition = r.u32();
  m.sc = r.i64();
  return m;
}

Message SnapshotReqMsg::to_message() const {
  Writer w;
  w.u64(reqid);
  return {msgtype::kSnapshotReq, std::move(w)};
}

SnapshotReqMsg SnapshotReqMsg::decode(Reader& r) {
  SnapshotReqMsg m;
  m.reqid = r.u64();
  return m;
}

Message SnapshotRespMsg::to_message() const {
  Writer w;
  w.u64(reqid);
  w.varint(snapshot.size());
  for (Version v : snapshot) w.i64(v);
  return {msgtype::kSnapshotResp, std::move(w)};
}

SnapshotRespMsg SnapshotRespMsg::decode(Reader& r) {
  SnapshotRespMsg m;
  m.reqid = r.u64();
  const std::uint64_t n = r.varint();
  m.snapshot.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) m.snapshot.push_back(r.i64());
  return m;
}

}  // namespace sdur

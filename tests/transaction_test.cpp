// Codec and model tests: Transaction, PartTx, SDUR and Paxos wire
// messages, partitioning schemes.
#include <gtest/gtest.h>

#include <functional>

#include "paxos/messages.h"
#include "sdur/messages.h"
#include "sdur/partitioning.h"
#include "sdur/transaction.h"

namespace sdur {
namespace {

TEST(Transaction, SnapshotVector) {
  Transaction t;
  EXPECT_EQ(t.snapshot_of(0), kNoSnapshot);
  t.set_snapshot(2, 17);
  t.set_snapshot(0, 5);
  t.set_snapshot(2, 18);  // overwrite
  EXPECT_EQ(t.snapshot_of(2), 18);
  EXPECT_EQ(t.snapshot_of(0), 5);
  EXPECT_EQ(t.snapshot_of(1), kNoSnapshot);
}

TEST(Transaction, EncodeDecodeRoundTrip) {
  Transaction t;
  t.id = 0xABCDEF01;
  t.client = 77;
  t.set_snapshot(0, 12);
  t.set_snapshot(3, -1);
  t.readset = {1, 2, 3};
  t.writeset = {{2, "two"}, {3, std::string("\0\x01binary", 8)}};

  util::Writer w;
  t.encode(w);
  util::Reader r(w.data());
  const Transaction d = Transaction::decode(r);
  EXPECT_EQ(d.id, t.id);
  EXPECT_EQ(d.client, t.client);
  EXPECT_EQ(d.snapshot_of(0), 12);
  EXPECT_EQ(d.readset, t.readset);
  ASSERT_EQ(d.writeset.size(), 2u);
  EXPECT_EQ(d.writeset[1].value, t.writeset[1].value);
}

TEST(PartTx, TxnRoundTrip) {
  PartTx t;
  t.kind = PartTx::Kind::kTxn;
  t.id = 99;
  t.client = 5;
  t.contact = 6;
  t.involved = {0, 2};
  t.snapshot = 41;
  t.readset = util::KeySet::exact({10, 11});
  t.write_keys = util::KeySet::exact({11});
  t.writes = {{11, "x"}};

  const PartTx d = PartTx::decode(t.encode());
  EXPECT_EQ(d.kind, PartTx::Kind::kTxn);
  EXPECT_EQ(d.id, 99u);
  EXPECT_EQ(d.client, 5u);
  EXPECT_EQ(d.contact, 6u);
  EXPECT_EQ(d.involved, (std::vector<PartitionId>{0, 2}));
  EXPECT_EQ(d.snapshot, 41);
  EXPECT_TRUE(d.is_global());
  EXPECT_TRUE(d.readset.may_contain(10));
  EXPECT_FALSE(d.readset.may_contain(12));
  ASSERT_EQ(d.writes.size(), 1u);
  EXPECT_EQ(d.writes[0].value, "x");
}

TEST(PartTx, BloomReadsetRoundTrip) {
  PartTx t;
  t.kind = PartTx::Kind::kTxn;
  t.id = 1;
  t.involved = {0};
  std::vector<Key> rs;
  for (Key k = 0; k < 100; ++k) rs.push_back(k);
  t.readset = util::KeySet::bloom(rs, 0.01);
  const PartTx d = PartTx::decode(t.encode());
  EXPECT_TRUE(d.readset.is_bloom());
  for (Key k = 0; k < 100; ++k) EXPECT_TRUE(d.readset.may_contain(k));
}

TEST(PartTx, TickRoundTrip) {
  const PartTx d = PartTx::decode(PartTx::make_tick().encode());
  EXPECT_EQ(d.kind, PartTx::Kind::kTick);
}

TEST(PartTx, AbortRequestRoundTrip) {
  const PartTx d = PartTx::decode(PartTx::make_abort_request(123, {1, 3}).encode());
  EXPECT_EQ(d.kind, PartTx::Kind::kAbortRequest);
  EXPECT_EQ(d.id, 123u);
  EXPECT_EQ(d.involved, (std::vector<PartitionId>{1, 3}));
}

TEST(Messages, VoteRoundTrip) {
  const VoteMsg m{42, 3, Outcome::kAbort};
  const sim::Message wire = m.to_message();
  util::Reader r(wire.payload);
  const VoteMsg d = VoteMsg::decode(r);
  EXPECT_EQ(d.id, 42u);
  EXPECT_EQ(d.partition, 3u);
  EXPECT_EQ(d.vote, Outcome::kAbort);
}

TEST(Messages, ReadReqRespRoundTrip) {
  const ReadReqMsg req{7, 1234, -1};
  const sim::Message wire1 = req.to_message();
  util::Reader r1(wire1.payload);
  const ReadReqMsg dreq = ReadReqMsg::decode(r1);
  EXPECT_EQ(dreq.reqid, 7u);
  EXPECT_EQ(dreq.snapshot, -1);

  const ReadRespMsg resp{7, 1234, true, "value", 55};
  const sim::Message wire2 = resp.to_message();
  util::Reader r2(wire2.payload);
  const ReadRespMsg dresp = ReadRespMsg::decode(r2);
  EXPECT_TRUE(dresp.found);
  EXPECT_EQ(dresp.value, "value");
  EXPECT_EQ(dresp.snapshot, 55);
}

TEST(Messages, SnapshotRespRoundTrip) {
  SnapshotRespMsg m;
  m.reqid = 9;
  m.snapshot = {10, -1, 30};
  const sim::Message wire = m.to_message();
  util::Reader r(wire.payload);
  const SnapshotRespMsg d = SnapshotRespMsg::decode(r);
  EXPECT_EQ(d.snapshot, (std::vector<Version>{10, -1, 30}));
}

// --- Wire-format pins --------------------------------------------------------
//
// One fixed instance per wire type, its exact encoding pinned as hex. A
// width, order or prefix change in any codec fails here, including for
// types the golden runs rarely send (Nack, CatchupResp, StateTransfer).

struct WirePin {
  std::string name;
  sim::MsgType type = 0;  // 0 for values that are not messages
  util::Bytes bytes;
  /// Decodes `b` (throwing CodecError if it is short) and encodes the
  /// result again.
  std::function<util::Bytes(const util::Bytes&)> reencode;
  std::string hex;
};

std::string to_hex(const util::Bytes& b) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t c : b) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

template <class M>
WirePin message_pin(std::string name, const M& m, std::string hex) {
  const sim::Message wire = m.to_message();
  return {std::move(name), wire.type, wire.payload.bytes(),
          [](const util::Bytes& b) {
            util::Reader r(b);
            return M::decode(r).to_message().payload.bytes();
          },
          std::move(hex)};
}

std::vector<WirePin> wire_pins() {
  Transaction tx;
  tx.id = 0x0102030405060708;
  tx.client = 9;
  tx.snapshots = {{0, 12}, {3, -1}};
  tx.readset = {1, 300};
  tx.writeset = {{2, "ab"}, {3, ""}};

  PartTx ptx;
  ptx.id = 99;
  ptx.client = 5;
  ptx.contact = 6;
  ptx.involved = {0, 2};
  ptx.snapshot = 41;
  ptx.readset = util::KeySet::exact({10, 11});
  ptx.write_keys = util::KeySet::exact({11});
  ptx.writes = {{11, "x"}};

  const paxos::Ballot ballot = paxos::Ballot::make(3, 1);
  const paxos::Value val = util::Bytes{0xAA, 0xBB};

  const std::string tx_hex =
      "08070605040302010900000002000000000c0000000000000003000000ffffff"
      "ffffffffff0201000000000000002c0100000000000002020000000000000002"
      "6162030000000000000000";

  std::vector<WirePin> pins;
  pins.push_back(message_pin("CommitReq", CommitReqMsg{tx}, tx_hex));
  pins.push_back(message_pin("Outcome", OutcomeMsg{7, Outcome::kCommit}, "070000000000000001"));
  pins.push_back(message_pin("ReadReq", ReadReqMsg{7, 1234, -1},
                             "0700000000000000d204000000000000ffffffffffffffff"));
  pins.push_back(message_pin("ReadResp", ReadRespMsg{7, 1234, true, "val", 55},
                             "0700000000000000d204000000000000010376616c3700000000000000"));
  pins.push_back(message_pin("ReadRouted", ReadRoutedMsg{7, 12, 1234, 55},
                             "07000000000000000c000000d2040000000000003700000000000000"));
  pins.push_back(
      message_pin("Vote", VoteMsg{42, 3, Outcome::kAbort}, "2a000000000000000300000002"));
  const VoteBatchMsg batch{1, {{5, Outcome::kCommit}, {6, Outcome::kAbort}}};
  pins.push_back(
      message_pin("VoteBatch", batch, "0100000002050000000000000001060000000000000002"));
  pins.push_back(
      message_pin("VotePiggyback", VotePiggybackMsg{msgtype::kGossipSC, {1, 2, 3}, batch},
                  "1a00030102030100000002050000000000000001060000000000000002"));
  pins.push_back(message_pin("VoteRequest", VoteRequestMsg{42}, "2a00000000000000"));
  pins.push_back(message_pin("GossipSC", GossipSCMsg{2, 77}, "020000004d00000000000000"));
  pins.push_back(message_pin("SnapshotReq", SnapshotReqMsg{9}, "0900000000000000"));
  pins.push_back(message_pin(
      "SnapshotResp", SnapshotRespMsg{9, {10, -1, 30}},
      "0900000000000000030a00000000000000ffffffffffffffff1e00000000000000"));

  pins.push_back(
      message_pin("Phase1A", paxos::Phase1A{ballot, 4}, "01030000000000000400000000000000"));
  pins.push_back(message_pin(
      "Phase1B", paxos::Phase1B{ballot, 4, {{4, ballot, val}, {5, paxos::Ballot{}, {}}}},
      "0103000000000000040000000000000002040000000000000001030000000000"
      "0002aabb0500000000000000000000000000000000"));
  pins.push_back(message_pin("Phase2A", paxos::Phase2A{ballot, 6, val},
                             "0103000000000000060000000000000002aabb"));
  pins.push_back(message_pin("Phase2B", paxos::Phase2B{ballot, 6, 2},
                             "0103000000000000060000000000000002000000"));
  pins.push_back(message_pin("Nack", paxos::Nack{ballot}, "0103000000000000"));
  pins.push_back(message_pin("Heartbeat", paxos::Heartbeat{ballot, 8},
                             "01030000000000000800000000000000"));
  pins.push_back(message_pin("Forward", paxos::Forward{val}, "02aabb"));
  pins.push_back(message_pin("CatchupReq", paxos::CatchupReq{3}, "0300000000000000"));
  pins.push_back(message_pin("CatchupResp", paxos::CatchupResp{3, {val, {}}},
                             "03000000000000000202aabb00"));
  pins.push_back(
      message_pin("StateTransfer", paxos::StateTransfer{9, val}, "090000000000000002aabb"));

  const auto tx_reencode = [](const util::Bytes& b) {
    util::Reader r(b);
    util::Writer w;
    Transaction::decode(r).encode(w);
    return std::move(w).take();
  };
  util::Writer tw;
  tx.encode(tw);
  pins.push_back({"Transaction", 0, std::move(tw).take(), tx_reencode, tx_hex});

  const auto part_pin = [&pins](std::string name, const PartTx& t, std::string hex) {
    pins.push_back({std::move(name), 0, t.encode(),
                    [](const util::Bytes& b) { return PartTx::decode(b).encode(); },
                    std::move(hex)});
  };
  part_pin("PartTx.Txn", ptx,
           "0063000000000000000500000006000000020000000002000000290000000000"
           "000000020a000000000000000b0000000000000000010b00000000000000010b"
           "000000000000000178");
  part_pin("PartTx.AbortRequest", PartTx::make_abort_request(123, {1, 3}),
           "017b00000000000000020100000003000000");
  part_pin("PartTx.Tick", PartTx::make_tick(), "02");
  part_pin("PartTx.SetThreshold", PartTx::make_set_threshold(24), "0318000000");

  pins.push_back({"Batch", 0, paxos::encode_batch({val, {}}),
                  [](const util::Bytes& b) { return paxos::encode_batch(paxos::decode_batch(b)); },
                  "0202aabb00"});
  return pins;
}

TEST(Messages, WireFormatPins) {
  for (const WirePin& pin : wire_pins()) {
    SCOPED_TRACE(pin.name);
    EXPECT_EQ(to_hex(pin.bytes), pin.hex);
    EXPECT_EQ(pin.reencode(pin.bytes), pin.bytes) << "round trip";
    for (std::size_t n = 0; n < pin.bytes.size(); ++n) {
      const util::Bytes cut(pin.bytes.begin(), pin.bytes.begin() + static_cast<std::ptrdiff_t>(n));
      EXPECT_THROW(pin.reencode(cut), util::CodecError) << "truncated to " << n << " bytes";
    }
  }
}

TEST(Messages, WireTypeTags) {
  std::vector<sim::MsgType> tags;
  for (const WirePin& pin : wire_pins()) {
    if (pin.type != 0) tags.push_back(pin.type);
  }
  const std::vector<sim::MsgType> expected = {20, 21, 22, 23, 24, 25, 30, 31, 29, 26, 27, 28,
                                              1,  2,  3,  4,  5,  6,  7,  8,  9,  10};
  EXPECT_EQ(tags, expected);
}

TEST(Partitioning, RangeScheme) {
  RangePartitioning p(4, 100);
  EXPECT_EQ(p.partition_of(0), 0u);
  EXPECT_EQ(p.partition_of(99), 0u);
  EXPECT_EQ(p.partition_of(100), 1u);
  EXPECT_EQ(p.partition_of(399), 3u);
  EXPECT_EQ(p.partition_of(100'000), 3u) << "clamped to last partition";
}

TEST(Partitioning, HashSchemeGroupsByPrefix) {
  HashPartitioning p(8, 3);
  for (Key base = 0; base < 100; ++base) {
    const PartitionId expected = p.partition_of(base << 3);
    for (Key off = 1; off < 8; ++off) {
      EXPECT_EQ(p.partition_of((base << 3) | off), expected)
          << "all keys sharing a prefix land together";
    }
  }
}

TEST(Partitioning, HashSchemeBalances) {
  HashPartitioning p(4, 0);
  std::vector<int> counts(4, 0);
  for (Key k = 0; k < 40'000; ++k) ++counts[p.partition_of(k)];
  for (int c : counts) {
    EXPECT_GT(c, 8'000);
    EXPECT_LT(c, 12'000);
  }
}

TEST(OutcomeNames, ToString) {
  EXPECT_STREQ(to_string(Outcome::kCommit), "commit");
  EXPECT_STREQ(to_string(Outcome::kAbort), "abort");
  EXPECT_STREQ(to_string(Outcome::kUnknown), "unknown");
}

}  // namespace
}  // namespace sdur

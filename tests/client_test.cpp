// Client library tests (Algorithm 1): snapshot management (including the
// lowest-snapshot rule for parallel first reads), buffered writes,
// parallel reads, read-only snapshot flow, deferred reads.
#include <gtest/gtest.h>

#include "sdur/deployment.h"

namespace sdur {
namespace {

struct Fixture {
  std::unique_ptr<Deployment> dep;
  Client* client = nullptr;

  explicit Fixture(ClientConfig client_cfg = {}) {
    DeploymentSpec spec;
    spec.client = std::move(client_cfg);
    spec.partitions = 3;
    spec.partitioning = std::make_shared<RangePartitioning>(3, 100);
    spec.paxos.log_write_latency = sim::usec(200);
    dep = std::make_unique<Deployment>(spec);
    for (Key k = 0; k < 300; ++k) dep->load(k, "v" + std::to_string(k));
    dep->start();
    client = &dep->add_client(0);
    dep->run_until(sim::msec(300));
  }

  void run_for(sim::Time t) { dep->run_until(dep->simulator().now() + t); }

  Outcome update(std::vector<Key> keys, const std::string& value) {
    Outcome result = Outcome::kUnknown;
    client->begin();
    client->read_many(keys, [&, keys](auto) {
      for (Key k : keys) client->write(k, value);
      client->commit([&](Outcome o) { result = o; });
    });
    run_for(sim::sec(5));
    return result;
  }
};

TEST(Client, ReadYourOwnBufferedWrites) {
  Fixture f;
  f.client->begin();
  std::string observed;
  f.client->read(5, [&](bool, const std::string&) {
    f.client->write(5, "buffered");
    f.client->read(5, [&](bool found, const std::string& v) {
      ASSERT_TRUE(found);
      observed = v;  // served from the write buffer, no round trip
    });
  });
  f.run_for(sim::sec(1));
  EXPECT_EQ(observed, "buffered");
}

TEST(Client, TransactionIdsAreUniqueAndMonotonic) {
  Fixture f;
  f.client->begin();
  const TxId a = f.client->current_txid();
  f.client->begin();
  const TxId b = f.client->current_txid();
  EXPECT_NE(a, 0u);
  EXPECT_LT(a, b);

  Client& other = f.dep->add_client(1);
  other.begin();
  EXPECT_NE(other.current_txid(), b) << "ids embed the client id";
}

TEST(Client, ParallelReadManyPreservesOrder) {
  Fixture f;
  std::vector<std::optional<std::string>> results;
  f.client->begin();
  // Keys from all three partitions, interleaved.
  f.client->read_many({250, 5, 105}, [&](auto values) { results = std::move(values); });
  f.run_for(sim::sec(1));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(*results[0], "v250");
  EXPECT_EQ(*results[1], "v5");
  EXPECT_EQ(*results[2], "v105");
}

TEST(Client, MissingKeyReportsNotFound) {
  Fixture f;
  bool found = true;
  f.client->begin();
  f.client->read(77'777, [&](bool fnd, const std::string&) { found = fnd; });
  f.run_for(sim::sec(1));
  EXPECT_FALSE(found);
}

TEST(Client, SnapshotFixedPerPartitionIndependently) {
  Fixture f;
  Client& writer = f.dep->add_client(0);

  // Fix the snapshot at partition 0 only.
  f.client->begin();
  f.client->read(1, [](bool, const std::string&) {});
  f.run_for(sim::sec(1));

  // Commit updates in partitions 0 and 1 from another client.
  {
    Outcome o = Outcome::kUnknown;
    writer.begin();
    writer.read_many({2, 102}, [&](auto) {
      writer.write(2, "new");
      writer.write(102, "new");
      writer.commit([&](Outcome out) { o = out; });
    });
    f.run_for(sim::sec(5));
    ASSERT_EQ(o, Outcome::kCommit);
  }

  // Partition 0 read sees the old snapshot; the first partition-1 read
  // fixes a fresh snapshot there and sees the new value.
  std::string p0, p1;
  f.client->read(2, [&](bool, const std::string& v) { p0 = v; });
  f.client->read(102, [&](bool, const std::string& v) { p1 = v; });
  f.run_for(sim::sec(1));
  EXPECT_EQ(p0, "v2") << "partition-0 snapshot predates the writer's commit";
  EXPECT_EQ(p1, "new") << "partition-1 snapshot was taken after it";
}

TEST(Client, ThreePartitionGlobalTransaction) {
  Fixture f;
  EXPECT_EQ(f.update({1, 101, 201}, "tri"), Outcome::kCommit);
  for (PartitionId p = 0; p < 3; ++p) {
    EXPECT_EQ(f.dep->server(p, 0).store().get_latest(1 + 100ULL * p)->value, "tri");
  }
}

TEST(Client, ReadOnlySeesAtomicGlobalState) {
  Fixture f;
  ASSERT_EQ(f.update({1, 101}, "both"), Outcome::kCommit);
  f.run_for(sim::msec(100));  // gossip

  std::string a, b;
  Outcome o = Outcome::kUnknown;
  f.client->begin_read_only([&] {
    f.client->read_many({1, 101}, [&](auto values) {
      a = values[0].value_or("");
      b = values[1].value_or("");
      f.client->commit([&](Outcome out) { o = out; });
    });
  });
  f.run_for(sim::sec(2));
  EXPECT_EQ(o, Outcome::kCommit);
  EXPECT_EQ(a, "both");
  EXPECT_EQ(b, "both");
}

TEST(Client, ReadOnlyDoesNotBlockOnConcurrentWriters) {
  Fixture f;
  // A read-only transaction issued while updates are in flight commits
  // without certification (never aborts) and sees a consistent snapshot.
  Client& writer = f.dep->add_client(0);
  for (int i = 0; i < 5; ++i) {
    writer.begin();
    writer.read(3, [&](bool, const std::string&) {
      writer.write(3, "w");
      writer.commit([](Outcome) {});
    });
  }
  Outcome o = Outcome::kUnknown;
  f.client->begin_read_only([&] {
    f.client->read(3, [&](bool, const std::string&) {
      f.client->commit([&](Outcome out) { o = out; });
    });
  });
  f.run_for(sim::sec(5));
  EXPECT_EQ(o, Outcome::kCommit);
}

/// Reads, snapshots and commits fail over: with partition 0's replica 0
/// (the home partition's nearest replica, its leader) crashed, the read's
/// retry reaches replica 1, which answers it, and later requests go to
/// replica 1 at once, with a probe copy to replica 0. The global's
/// contact, partition 1's replica 0, forwards partition 0's part to the
/// dead replica 0 and re-forwards it on its own timer: no commit retry.
TEST(Client, CrashedNearestReplicaFailsOverToTheNext) {
  Fixture f;
  f.dep->server(0, 0).crash();

  std::string value;
  f.client->begin();
  f.client->read(1, [&](bool, const std::string& v) { value = v; });
  f.run_for(sim::msec(300));
  EXPECT_EQ(value, "v1");
  EXPECT_EQ(f.client->stats().read_retries, 1u) << "one read retry";

  bool ready = false;
  f.client->begin_read_only([&] { ready = true; });
  f.run_for(sim::msec(50));
  EXPECT_TRUE(ready) << "answered by replica 1 without a retry";
  EXPECT_EQ(f.client->stats().read_retries, 1u);
  EXPECT_EQ(f.client->stats().probes, 2u) << "the read's retry and the snapshot probed replica 0";

  EXPECT_EQ(f.update({2, 102}, "failed-over"), Outcome::kCommit);
  EXPECT_EQ(f.dep->server(1, 0).stats().timed_reforwards, 1u);
  EXPECT_EQ(f.client->stats().commit_retries, 0u);
  EXPECT_EQ(f.client->stats().timeouts, 0u);
  EXPECT_EQ(f.dep->server(0, 1).store().get_latest(2)->value, "failed-over");
  EXPECT_EQ(f.dep->server(1, 0).store().get_latest(102)->value, "failed-over");
}

/// A read that failed over to a replica in another region waits for that
/// replica's round trip, not the nearest one's: a US-EAST client of WAN 1
/// whose nearest partition-0 replica (the away one) crashed retries once,
/// to the EU (94.5 ms round trip), and is answered there without timing
/// out on it.
TEST(Client, FailedOverReadWaitsForTheFartherReplicasRoundTrip) {
  DeploymentSpec spec;
  spec.kind = DeploymentSpec::Kind::kWan1;
  spec.partitions = 2;
  spec.partitioning = std::make_shared<RangePartitioning>(2, 100);
  spec.paxos.log_write_latency = sim::usec(200);
  Deployment dep(spec);
  for (Key k = 0; k < 200; ++k) dep.load(k, "v" + std::to_string(k));
  dep.start();
  Client& client = dep.add_client(1);
  dep.run_until(sim::sec(1));
  Server& away = dep.server(0, 2);
  ASSERT_EQ(client.read_retry_period(away.self()), 2 * sim::usec(1'050) + kReadRetrySlack);
  away.crash();

  std::string value;
  client.begin();
  client.read(1, [&](bool, const std::string& v) { value = v; });
  dep.run_until(dep.simulator().now() + sim::msec(400));
  EXPECT_EQ(value, "v1");
  EXPECT_EQ(client.stats().read_retries, 1u) << "no timeout on the live EU replica";
  EXPECT_EQ(client.stats().probes, 1u);
}

/// Stands in for a partition's server: records read and commit requests
/// and answers reads only when the test says so, at the snapshot it picks.
struct ScriptedServer : sim::Process {
  using sim::Process::Process;
  std::vector<ReadReqMsg> reads;
  std::optional<Transaction> committed;
  void on_message(const sim::Message& m, sim::ProcessId) override {
    util::Reader r(m.payload);
    if (m.type == msgtype::kReadReq) reads.push_back(ReadReqMsg::decode(r));
    if (m.type == msgtype::kCommitReq) committed = CommitReqMsg::decode(r).tx;
  }
};

/// Records which replica each read, snapshot and commit request reaches,
/// in arrival order. Silent by default; with `answers` set it answers each
/// read, snapshot and commit request at once.
struct RecordingReplica : sim::Process {
  struct Arrival {
    sim::MsgType type;
    sim::ProcessId replica;
    std::uint64_t reqid;  // reads and snapshots; the TxId of commits
  };
  RecordingReplica(sim::Network& net, sim::ProcessId pid, std::vector<Arrival>& arrivals)
      : sim::Process(net, pid, "replica-" + std::to_string(pid), sim::Location{0, 0}),
        log(arrivals) {}
  std::vector<Arrival>& log;
  bool answers = false;
  void on_message(const sim::Message& m, sim::ProcessId from) override {
    util::Reader r(m.payload);
    std::uint64_t reqid = 0;
    if (m.type == msgtype::kReadReq) {
      const ReadReqMsg req = ReadReqMsg::decode(r);
      reqid = req.reqid;
      if (answers) send(from, ReadRespMsg{req.reqid, req.key, true, "v", 0}.to_message());
    }
    if (m.type == msgtype::kSnapshotReq) {
      reqid = SnapshotReqMsg::decode(r).reqid;
      if (answers) send(from, SnapshotRespMsg{reqid, {0}}.to_message());
    }
    if (m.type == msgtype::kCommitReq) {
      const TxId id = CommitReqMsg::decode(r).tx.id;
      reqid = id;
      if (answers) send(from, OutcomeMsg{id, Outcome::kCommit}.to_message());
    }
    log.push_back({m.type, self(), reqid});
  }
};

/// A client of one partition whose replicas are a, b and c, nearest
/// first, all recording into `log`.
struct ReplicaSet {
  Fixture f;
  std::vector<RecordingReplica::Arrival> log;
  RecordingReplica a{f.dep->network(), 20'000, log};
  RecordingReplica b{f.dep->network(), 20'001, log};
  RecordingReplica c{f.dep->network(), 20'002, log};
  Client client{f.dep->network(), 20'010, sim::Location{0, 0}, [this] {
                  ClientConfig cfg;
                  cfg.partitioning = std::make_shared<RangePartitioning>(1, 100);
                  cfg.servers = {{a.self(), b.self(), c.self()}};
                  return cfg;
                }()};
  std::uint64_t last_reqid = 0;

  /// Runs for `t`, then expects the requests that arrived meanwhile to be
  /// of `type` and to have reached exactly `replicas` (in any order: a
  /// probe copy travels alongside its request), and clears the log.
  void expect_wave(sim::Time t, sim::MsgType type, std::vector<sim::ProcessId> replicas) {
    f.run_for(t);
    std::vector<sim::ProcessId> got;
    for (const RecordingReplica::Arrival& arrival : log) {
      EXPECT_EQ(arrival.type, type);
      got.push_back(arrival.replica);
    }
    std::ranges::sort(got);
    std::ranges::sort(replicas);
    EXPECT_EQ(got, replicas);
    if (!log.empty()) last_reqid = log.back().reqid;
    log.clear();
  }
  /// `from` sends the client `m`; any message clears the sender's misses.
  void reply(RecordingReplica& from, const sim::Message& m) {
    from.send(client.self(), m);
    f.run_for(sim::msec(10));
    log.clear();
  }
  void answer_read(RecordingReplica& from, Key k) {
    reply(from, ReadRespMsg{last_reqid, k, true, "v", 0}.to_message());
  }
  /// A message that answers nothing.
  void hear_from(RecordingReplica& from) { reply(from, OutcomeMsg{0, Outcome::kAbort}.to_message()); }
};

constexpr sim::Time kFirst = sim::msec(5);  // the first attempt arrives
// Read and snapshot retry period: the round trip within the region, 5%
// jitter included, plus the slack.
constexpr sim::Time kRead = 2 * sim::usec(1'050) + kReadRetrySlack;
constexpr sim::Time kCommit = sim::msec(500);  // commit retry period

TEST(Client, AttemptsRotateThroughThePartitionsReplicas) {
  ReplicaSet s;
  const sim::ProcessId a = s.a.self(), b = s.b.self(), c = s.c.self();

  // Each timeout charges the replica a miss, so a read's attempts go a, b,
  // c, a, b every 22.1 ms; while a has misses, each also probes a.
  ASSERT_EQ(s.client.read_retry_period(a), kRead);
  s.client.begin();
  s.client.read(1, [](bool, const std::string&) {});
  s.expect_wave(kFirst, msgtype::kReadReq, {a});
  s.expect_wave(kRead, msgtype::kReadReq, {b, a});
  s.expect_wave(kRead, msgtype::kReadReq, {c, a});
  s.expect_wave(kRead, msgtype::kReadReq, {a});  // one miss each: nearest
  s.expect_wave(kRead, msgtype::kReadReq, {b, a});
  EXPECT_EQ(s.client.stats().read_retries, 4u);
  EXPECT_EQ(s.client.stats().probes, 3u);
  s.answer_read(s.b, 1);

  // A new request goes to the replica with the fewest misses: b, which
  // answered; after b's next timeout, b again, nearer than c.
  s.client.read(2, [](bool, const std::string&) {});
  s.expect_wave(kFirst, msgtype::kReadReq, {b, a});
  s.expect_wave(kRead, msgtype::kReadReq, {b, a});
  s.answer_read(s.b, 2);

  // Once every replica was heard from, snapshots rotate the same way.
  s.hear_from(s.a);
  s.hear_from(s.c);
  s.client.begin_read_only([] {});
  s.expect_wave(kFirst, msgtype::kSnapshotReq, {a});
  s.expect_wave(kRead, msgtype::kSnapshotReq, {b, a});
  s.expect_wave(kRead, msgtype::kSnapshotReq, {c, a});
  s.reply(s.b, SnapshotRespMsg{s.last_reqid, {0}}.to_message());

  // Commit attempts rotate a, b, c, a every 500 ms.
  s.hear_from(s.a);
  s.client.begin();
  s.client.write(3, "x");
  s.client.commit([](Outcome) {});
  s.expect_wave(kFirst, msgtype::kCommitReq, {a});
  s.expect_wave(kCommit, msgtype::kCommitReq, {b});
  s.expect_wave(kCommit, msgtype::kCommitReq, {c});
  s.expect_wave(kCommit, msgtype::kCommitReq, {a});
  EXPECT_EQ(s.client.stats().commit_retries, 3u);
}

TEST(Client, NextRequestSkipsAReplicaThatTimedOut) {
  ReplicaSet s;
  const sim::ProcessId a = s.a.self(), b = s.b.self();
  s.b.answers = s.c.answers = true;
  bool done = false;
  s.client.begin();
  s.client.read(1, [&](bool, const std::string&) { done = true; });
  s.expect_wave(kFirst, msgtype::kReadReq, {a});
  s.expect_wave(kRead, msgtype::kReadReq, {b, a});
  ASSERT_TRUE(done);

  // Reads, a commit's first attempt and snapshots all go to b.
  done = false;
  s.client.read(2, [&](bool, const std::string&) { done = true; });
  s.expect_wave(kFirst, msgtype::kReadReq, {b, a});
  EXPECT_TRUE(done) << "answered without a retry";
  Outcome outcome = Outcome::kUnknown;
  s.client.write(2, "x");
  s.client.commit([&](Outcome o) { outcome = o; });
  s.expect_wave(kFirst, msgtype::kCommitReq, {b});
  EXPECT_EQ(outcome, Outcome::kCommit);
  s.client.begin_read_only([] {});
  s.expect_wave(kFirst, msgtype::kSnapshotReq, {b, a});
  EXPECT_EQ(s.client.stats().read_retries, 1u);
}

TEST(Client, AReplyFromTheReplicaRestoresIt) {
  ReplicaSet s;
  const sim::ProcessId a = s.a.self(), b = s.b.self();
  s.b.answers = true;
  s.client.begin();
  s.client.read(1, [](bool, const std::string&) {});
  s.expect_wave(kFirst, msgtype::kReadReq, {a});
  s.expect_wave(kRead, msgtype::kReadReq, {b, a});

  // a is back: its answer to the next probe copy clears its miss.
  s.a.answers = true;
  s.client.read(2, [](bool, const std::string&) {});
  s.expect_wave(kFirst, msgtype::kReadReq, {b, a});
  s.client.read(3, [](bool, const std::string&) {});
  s.expect_wave(kFirst, msgtype::kReadReq, {a});
  EXPECT_EQ(s.client.stats().probes, 2u);
}

TEST(Client, ProbeCopyGoesToTheNearestReplicaWhileItHasMisses) {
  ReplicaSet s;
  s.b.answers = true;
  s.client.begin();
  s.client.read(1, [](bool, const std::string&) {});
  s.f.run_for(sim::msec(250));
  EXPECT_EQ(s.client.stats().probes, 1u) << "the retry probed a";
  s.log.clear();

  // Every read and snapshot request probes a; none probes b or c.
  for (Key k = 2; k < 5; ++k) s.client.read(k, [](bool, const std::string&) {});
  s.client.begin_read_only([] {});
  s.f.run_for(sim::msec(10));
  std::size_t to_a = 0, to_b = 0;
  for (const RecordingReplica::Arrival& arrival : s.log) {
    to_a += arrival.replica == s.a.self();
    to_b += arrival.replica == s.b.self();
  }
  EXPECT_EQ(to_a, 4u) << "one probe per request";
  EXPECT_EQ(to_b, 4u);
  EXPECT_EQ(s.log.size(), 8u) << "c is never asked";
  EXPECT_EQ(s.client.stats().probes, 5u);
  EXPECT_EQ(s.client.stats().read_retries, 1u);
}

TEST(Client, CommitRetriesChargeNoMiss) {
  ReplicaSet s;
  const sim::ProcessId a = s.a.self(), b = s.b.self(), c = s.c.self();
  s.client.begin();
  s.client.write(1, "x");
  s.client.commit([](Outcome) {});
  s.f.run_for(sim::msec(1600));  // attempts at a, b, c, a
  EXPECT_EQ(s.client.stats().commit_retries, 3u);
  s.reply(s.a, OutcomeMsg{s.client.current_txid(), Outcome::kCommit}.to_message());

  // No replica has a miss: the next read goes to a alone.
  s.client.begin();
  s.client.read(1, [](bool, const std::string&) {});
  s.expect_wave(kFirst, msgtype::kReadReq, {a});
  EXPECT_EQ(s.client.stats().probes, 0u);

  // A read timeout does charge a: the next commit starts at b, and its
  // retries rotate on from there.
  s.expect_wave(kRead, msgtype::kReadReq, {b, a});
  s.answer_read(s.b, 1);
  s.client.write(1, "y");
  s.client.commit([](Outcome) {});
  s.expect_wave(kFirst, msgtype::kCommitReq, {b});
  s.expect_wave(kCommit, msgtype::kCommitReq, {c});
  s.expect_wave(kCommit, msgtype::kCommitReq, {a});
}

/// A read the replica holds (deferred there until its snapshot is applied)
/// while the replica answers other requests is re-sent to it alone, and
/// charges it no miss: the next read goes there too, without a probe. Once
/// the replica falls silent, the next retries move on. (A message counts
/// once it arrives more than the 2.1 ms round trip after the request left.)
TEST(Client, RetryToAReplicaHeardFromSinceChargesNoMiss) {
  ReplicaSet s;
  const sim::ProcessId a = s.a.self(), b = s.b.self();
  s.client.begin();
  s.client.read(1, [](bool, const std::string&) {});
  s.expect_wave(kFirst, msgtype::kReadReq, {a});
  s.hear_from(s.a);
  s.expect_wave(kRead, msgtype::kReadReq, {a});
  EXPECT_EQ(s.client.stats().read_retries, 1u);
  EXPECT_EQ(s.client.stats().probes, 0u);

  s.client.read(2, [](bool, const std::string&) {});
  s.expect_wave(kFirst, msgtype::kReadReq, {a});
  EXPECT_EQ(s.client.stats().probes, 0u) << "a has no miss";

  // Silent since: both reads' retries charge a and go to b, probing a.
  s.expect_wave(kRead, msgtype::kReadReq, {b, a, b, a});
  EXPECT_EQ(s.client.stats().read_retries, 3u);
  EXPECT_EQ(s.client.stats().probes, 2u);
}

/// A message the replica sent before the request could reach it proves
/// nothing about the request (the replica may have crashed in between):
/// with a 2.1 ms round trip to each replica, a message the replica sent as
/// the read left, heard a quarter millisecond later, does not keep the
/// retry at the replica.
TEST(Client, ReplyOlderThanTheRoundTripStillChargesAMiss) {
  ReplicaSet s;
  const sim::ProcessId a = s.a.self(), b = s.b.self();
  Client client{s.f.dep->network(), 20'011, sim::Location{0, 0}, [&] {
                  ClientConfig cfg;
                  cfg.partitioning = std::make_shared<RangePartitioning>(1, 100);
                  cfg.servers = {{a, b, s.c.self()}};
                  return cfg;
                }()};
  ASSERT_EQ(client.read_retry_period(a), kRead);
  client.begin();
  client.read(1, [](bool, const std::string&) {});
  s.a.send(client.self(), OutcomeMsg{0, Outcome::kAbort}.to_message());
  s.expect_wave(kFirst, msgtype::kReadReq, {a});
  s.expect_wave(client.read_retry_period(a), msgtype::kReadReq, {b, a});
  EXPECT_EQ(client.stats().read_retries, 1u);
  EXPECT_EQ(client.stats().probes, 1u);
}

/// A retry re-sends the transaction commit() sent, even after begin()
/// replaced it with the next one, which nobody asked to commit.
TEST(Client, CommitRetriesResendTheTransactionCommitSent) {
  ReplicaSet s;
  s.client.begin();
  s.client.write(1, "x");
  const TxId committed = s.client.current_txid();
  s.client.commit([](Outcome) {});
  s.f.run_for(kFirst);
  s.client.begin();
  s.client.write(2, "y");
  s.f.run_for(2 * kCommit);
  std::vector<TxId> sent;
  for (const RecordingReplica::Arrival& arrival : s.log) {
    if (arrival.type == msgtype::kCommitReq) sent.push_back(arrival.reqid);
  }
  EXPECT_EQ(sent, (std::vector<TxId>{committed, committed, committed}));
  EXPECT_NE(s.client.current_txid(), committed);
}

TEST(Client, ParallelFirstReadsKeepTheLowestSnapshot) {
  // Two parallel first reads at one partition, served at different read
  // frontiers (key 1 at 2, key 2 at 5); the higher reply lands first. The
  // transaction must certify at 2: fixing it at 5 would let a write to
  // key 1 at version 3..5 escape certification — a lost update.
  Fixture f;
  ScriptedServer server(f.dep->network(), 20'000, "scripted", sim::Location{0, 0});
  ClientConfig cfg;
  cfg.partitioning = std::make_shared<RangePartitioning>(1, 100);
  cfg.servers = {{server.self()}};
  Client client(f.dep->network(), 20'001, sim::Location{0, 0}, cfg);

  bool read_done = false;
  client.begin();
  client.read_many({1, 2}, [&](auto) {
    read_done = true;
    client.write(1, "x");
    client.write(2, "y");
    client.commit([](Outcome) {});
  });
  f.run_for(sim::msec(10));
  ASSERT_EQ(server.reads.size(), 2u);
  for (const ReadReqMsg& req : server.reads) EXPECT_EQ(req.snapshot, kNoSnapshot);

  auto reply = [&](const ReadReqMsg& req, Version snapshot) {
    server.send(client.self(),
                ReadRespMsg{req.reqid, req.key, true, "v", snapshot}.to_message());
    f.run_for(sim::msec(10));
  };
  reply(server.reads[1], 5);  // key 2, higher snapshot, first
  reply(server.reads[0], 2);  // key 1, lower snapshot, second
  ASSERT_TRUE(read_done);
  ASSERT_TRUE(server.committed.has_value());
  EXPECT_EQ(server.committed->snapshot_of(0), 2) << "certify at the lowest served snapshot";

  // Certify the shipped transaction behind a write to key 1 at version 3.
  auto certify = [](Version snapshot) {
    Certifier cert(64);
    for (Key k : {Key{50}, Key{51}, Key{1}, Key{52}, Key{53}}) {  // versions 1..5
      PartTx w;
      w.kind = PartTx::Kind::kTxn;
      w.id = 100 + k;
      w.involved = {0};
      w.snapshot = cert.certified();
      w.readset = util::KeySet::exact({k});
      w.write_keys = util::KeySet::exact({k});
      EXPECT_EQ(cert.process(w, 0, 0).outcome, Outcome::kCommit);
    }
    PartTx t;
    t.kind = PartTx::Kind::kTxn;
    t.id = 1;
    t.involved = {0};
    t.snapshot = snapshot;
    t.readset = util::KeySet::exact({1, 2});
    t.write_keys = util::KeySet::exact({1, 2});
    return cert.process(t, 0, 0).outcome;
  };
  EXPECT_EQ(certify(server.committed->snapshot_of(0)), Outcome::kAbort)
      << "the write to key 1 between the two snapshots must abort the transaction";
  EXPECT_EQ(certify(5), Outcome::kCommit) << "the first-reply snapshot would have missed it";
}

TEST(Client, StatsCountReadsAndCommits) {
  Fixture f;
  ASSERT_EQ(f.update({1, 2}, "x"), Outcome::kCommit);
  EXPECT_EQ(f.client->stats().reads, 2u);
  EXPECT_EQ(f.client->stats().commits_requested, 1u);
  EXPECT_EQ(f.client->stats().timeouts, 0u);
}

TEST(Client, DroppedReadResponseIsRetriedAndCounted) {
  Fixture f;
  const sim::Time period = f.client->read_retry_period(f.dep->server(0, 0).self());
  bool found = false;
  f.client->begin();
  f.client->read(1, [&](bool ok, const std::string&) { found = ok; });
  // The request is already in flight; cutting the client off until just
  // before the retry drops the server's response, so only the retry can
  // answer the read.
  f.dep->network().isolate(f.client->self());
  f.run_for(period - sim::msec(1));
  EXPECT_FALSE(found);
  EXPECT_EQ(f.client->stats().read_retries, 0u);
  f.dep->network().heal(f.client->self());
  f.run_for(sim::sec(1));
  EXPECT_TRUE(found);
  EXPECT_EQ(f.client->stats().read_retries, 1u);
}

/// With its nearest replica crashed, a client's read and a fresh client's
/// snapshot are answered by the next replica one retry period later: the
/// round trip to the dead replica plus kReadRetrySlack.
TEST(Client, CrashedNearestReplicaIsLeftWithinTheRetryPeriod) {
  Fixture f;
  Server& nearest = f.dep->server(0, 0);
  nearest.crash();
  const sim::Time period = f.client->read_retry_period(nearest.self());
  ASSERT_LT(period, sim::msec(30));
  // The next replica is one region away: its answer takes a round trip of
  // 2.1 ms at most, and a few microseconds of service.
  const sim::Time answer = sim::msec(3);

  sim::Time start = f.dep->simulator().now();
  sim::Time read_after = 0;
  f.client->begin();
  f.client->read(1, [&](bool, const std::string&) {
    read_after = f.dep->simulator().now() - start;
  });
  f.run_for(sim::msec(100));
  EXPECT_GT(read_after, period);
  EXPECT_LE(read_after, period + answer);

  Client& fresh = f.dep->add_client(0);
  start = f.dep->simulator().now();
  sim::Time ready_after = 0;
  fresh.begin_read_only([&] { ready_after = f.dep->simulator().now() - start; });
  f.run_for(sim::msec(100));
  EXPECT_GT(ready_after, period);
  EXPECT_LE(ready_after, period + answer);
  EXPECT_EQ(fresh.stats().read_retries, 1u);
}

}  // namespace
}  // namespace sdur

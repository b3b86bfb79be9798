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
/// (the home partition's nearest replica, its leader) crashed, each
/// request's second attempt reaches replica 1, which answers it.
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
  f.run_for(sim::msec(300));
  EXPECT_TRUE(ready);
  EXPECT_EQ(f.client->stats().read_retries, 2u) << "one snapshot retry";

  // The commit waits for partition 0 to elect a new leader.
  EXPECT_EQ(f.update({2, 102}, "failed-over"), Outcome::kCommit);
  EXPECT_GE(f.client->stats().commit_retries, 1u);
  EXPECT_EQ(f.client->stats().timeouts, 0u);
  EXPECT_EQ(f.dep->server(0, 1).store().get_latest(2)->value, "failed-over");
  EXPECT_EQ(f.dep->server(1, 0).store().get_latest(102)->value, "failed-over");
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
/// in arrival order, and answers none of them.
struct SilentReplica : sim::Process {
  struct Arrival {
    sim::MsgType type;
    sim::ProcessId replica;
    std::uint64_t reqid;  // reads and snapshots
  };
  SilentReplica(sim::Network& net, sim::ProcessId pid, std::vector<Arrival>& arrivals)
      : sim::Process(net, pid, "silent-" + std::to_string(pid), sim::Location{0, 0}),
        log(arrivals) {}
  std::vector<Arrival>& log;
  void on_message(const sim::Message& m, sim::ProcessId) override {
    util::Reader r(m.payload);
    std::uint64_t reqid = 0;
    if (m.type == msgtype::kReadReq) reqid = ReadReqMsg::decode(r).reqid;
    if (m.type == msgtype::kSnapshotReq) reqid = SnapshotReqMsg::decode(r).reqid;
    log.push_back({m.type, self(), reqid});
  }
};

TEST(Client, AttemptsRotateThroughThePartitionsReplicas) {
  Fixture f;
  std::vector<SilentReplica::Arrival> log;
  SilentReplica a(f.dep->network(), 20'000, log);
  SilentReplica b(f.dep->network(), 20'001, log);
  SilentReplica c(f.dep->network(), 20'002, log);
  ClientConfig cfg;
  cfg.partitioning = std::make_shared<RangePartitioning>(1, 100);
  cfg.servers = {{a.self(), b.self(), c.self()}};
  Client client(f.dep->network(), 20'010, sim::Location{0, 0}, cfg);

  // Attempt i of a request goes to servers[0][i % 3], every 200 ms for
  // reads and snapshots, every 500 ms for commits. Each phase answers its
  // request at the end, so its retries stop.
  auto expect_attempts = [&](sim::MsgType type, std::vector<sim::ProcessId> order) {
    ASSERT_EQ(log.size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(log[i].type, type) << "attempt " << i;
      EXPECT_EQ(log[i].replica, order[i]) << "attempt " << i;
    }
  };
  auto answer_read = [&](Key k) {
    b.send(client.self(), ReadRespMsg{log.back().reqid, k, true, "v", 0}.to_message());
    f.run_for(sim::msec(10));
    log.clear();
  };
  client.begin();
  client.read(1, [](bool, const std::string&) {});
  f.run_for(sim::msec(850));
  expect_attempts(msgtype::kReadReq, {a.self(), b.self(), c.self(), a.self(), b.self()});
  EXPECT_EQ(client.stats().read_retries, 4u);
  answer_read(1);

  // A new request starts at the nearest replica again.
  client.read(2, [](bool, const std::string&) {});
  f.run_for(sim::msec(250));
  expect_attempts(msgtype::kReadReq, {a.self(), b.self()});
  answer_read(2);

  client.begin_read_only([] {});
  f.run_for(sim::msec(450));
  expect_attempts(msgtype::kSnapshotReq, {a.self(), b.self(), c.self()});
  b.send(client.self(), SnapshotRespMsg{log.back().reqid, {0}}.to_message());
  f.run_for(sim::msec(10));
  log.clear();

  client.begin();
  client.write(3, "x");
  client.commit([](Outcome) {});
  f.run_for(sim::msec(1600));
  expect_attempts(msgtype::kCommitReq, {a.self(), b.self(), c.self(), a.self()});
  EXPECT_EQ(client.stats().commit_retries, 3u);
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
  ClientConfig slow_retries;
  slow_retries.read_retry_interval = sim::sec(2);
  Fixture f(slow_retries);
  bool found = false;
  f.client->begin();
  f.client->read(1, [&](bool ok, const std::string&) { found = ok; });
  // The request is already in flight; cutting the client off drops the
  // server's response, so only the retry can answer the read.
  f.dep->network().isolate(f.client->self());
  f.run_for(sim::sec(1));
  EXPECT_FALSE(found);
  EXPECT_EQ(f.client->stats().read_retries, 0u);
  f.dep->network().heal(f.client->self());
  f.run_for(sim::sec(3));
  EXPECT_TRUE(found);
  EXPECT_EQ(f.client->stats().read_retries, 1u);
}

}  // namespace
}  // namespace sdur

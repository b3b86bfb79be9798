// Snapshot gossip and deferred-read tests: the machinery behind global
// read-only transactions (paper Section III-A).
#include <gtest/gtest.h>

#include "sdur/deployment.h"

namespace sdur {
namespace {

struct Fixture {
  std::unique_ptr<Deployment> dep;
  Client* client = nullptr;

  Fixture() {
    DeploymentSpec spec;
    spec.partitions = 2;
    spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
    spec.paxos.log_write_latency = sim::usec(200);
    dep = std::make_unique<Deployment>(spec);
    for (Key k = 0; k < 20; ++k) dep->load(k, "a");
    for (Key k = 1000; k < 1020; ++k) dep->load(k, "b");
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

TEST(Gossip, SnapshotVectorReflectsRemoteCommits) {
  Fixture f;
  // Commit twice in partition 1 only.
  ASSERT_EQ(f.update({1000}, "x"), Outcome::kCommit);
  ASSERT_EQ(f.update({1001}, "x"), Outcome::kCommit);
  f.run_for(sim::msec(200));  // >> gossip interval

  struct Probe : sim::Process {
    using sim::Process::Process;
    std::vector<Version> snapshot;
    void on_message(const sim::Message& m, sim::ProcessId) override {
      if (m.type == msgtype::kSnapshotResp) {
        util::Reader r(m.payload);
        snapshot = SnapshotRespMsg::decode(r).snapshot;
      }
    }
  } probe(f.dep->network(), 30'000, "probe", sim::Location{0, 0});

  // Ask a partition-0 server for a global snapshot: its view of partition 1
  // must have advanced through gossip.
  probe.send(f.dep->server(0, 0).self(), SnapshotReqMsg{1}.to_message());
  f.run_for(sim::sec(1));
  ASSERT_EQ(probe.snapshot.size(), 2u);
  EXPECT_EQ(probe.snapshot[0], f.dep->server(0, 0).sc());
  EXPECT_EQ(probe.snapshot[1], 2) << "two commits gossiped from partition 1";
}

TEST(Gossip, ReadAtFutureSnapshotIsDeferredThenServed) {
  Fixture f;
  // Ask replica (0,1) for a read at a snapshot it has not reached yet.
  Server& replica = f.dep->server(0, 1);
  const Version future = replica.sc() + 1;

  struct Probe : sim::Process {
    using sim::Process::Process;
    bool got = false;
    std::string value;
    void on_message(const sim::Message& m, sim::ProcessId) override {
      if (m.type == msgtype::kReadResp) {
        util::Reader r(m.payload);
        const auto resp = ReadRespMsg::decode(r);
        got = true;
        value = resp.value;
      }
    }
  } probe(f.dep->network(), 30'001, "probe", sim::Location{0, 0});

  probe.send(replica.self(), ReadReqMsg{1, 5, future}.to_message());
  f.run_for(sim::msec(500));
  EXPECT_FALSE(probe.got) << "read must wait for the snapshot to become stable";
  EXPECT_GT(replica.stats().reads_deferred, 0u);

  ASSERT_EQ(f.update({5}, "future-value"), Outcome::kCommit);
  f.run_for(sim::sec(1));
  ASSERT_TRUE(probe.got) << "commit advanced the snapshot; deferred read served";
  EXPECT_EQ(probe.value, "future-value");
}

TEST(Gossip, ReadOnlyAcrossPartitionsObservesGlobalCommitAtomically) {
  Fixture f;
  // Interleave: commit a global transaction, then immediately run a
  // read-only transaction from the snapshot vector; it must see either
  // both writes or neither (here: both, since gossip runs every 5ms and we
  // wait for it).
  ASSERT_EQ(f.update({1, 1001}, "atomic"), Outcome::kCommit);
  f.run_for(sim::msec(100));

  std::string a = "?", b = "?";
  f.client->begin_read_only([&] {
    f.client->read_many({1, 1001}, [&](auto values) {
      a = values[0].value_or("");
      b = values[1].value_or("");
    });
  });
  f.run_for(sim::sec(1));
  EXPECT_EQ(a, "atomic");
  EXPECT_EQ(b, "atomic");
}

}  // namespace
}  // namespace sdur

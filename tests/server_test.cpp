// SDUR server tests: end-to-end transaction semantics through the full
// stack (client -> contact server -> Paxos -> certification -> votes),
// including conflicts, snapshots, fault handling and recovery.
#include <gtest/gtest.h>

#include <algorithm>

#include "sdur/deployment.h"

namespace sdur {
namespace {

struct Fixture {
  std::unique_ptr<Deployment> dep;

  explicit Fixture(DeploymentSpec spec = {}) {
    if (!spec.partitioning) {
      spec.partitions = 2;
      spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
    }
    spec.log_write_latency = sim::usec(200);
    dep = std::make_unique<Deployment>(spec);
    for (Key k = 0; k < 20; ++k) dep->load(k, "a" + std::to_string(k));
    for (Key k = 1000; k < 1020; ++k) dep->load(k, "b" + std::to_string(k));
    dep->start();
  }

  sim::Simulator& sim() { return dep->simulator(); }
  void settle() { sim().run_until(sim::msec(300)); }
  void run_for(sim::Time t) { sim().run_until(sim().now() + t); }

  /// Runs a read-modify-write transaction and returns its outcome.
  Outcome update(Client& c, std::vector<Key> keys, const std::string& value) {
    Outcome result = Outcome::kUnknown;
    c.begin();
    c.read_many(keys, [&, keys](auto) {
      for (Key k : keys) c.write(k, value);
      c.commit([&](Outcome o) { result = o; });
    });
    run_for(sim::sec(5));
    return result;
  }

  std::string read_latest(PartitionId p, Key k) {
    auto v = dep->server(p, 0).store().get_latest(k);
    return v ? v->value : "<missing>";
  }

  /// Asserts all replicas of every partition converged to identical state.
  void assert_replicas_converged() {
    run_for(sim::sec(2));  // let trailing 2Bs and votes drain
    for (PartitionId p = 0; p < dep->partition_count(); ++p) {
      Server& ref = dep->server(p, 0);
      for (std::uint32_t r = 1; r < dep->replica_count(); ++r) {
        Server& other = dep->server(p, r);
        ASSERT_EQ(ref.sc(), other.sc()) << "partition " << p << " replica " << r;
        for (Key k : ref.store().keys()) {
          auto a = ref.store().get_latest(k);
          auto b = other.store().get_latest(k);
          ASSERT_TRUE(b.has_value()) << "key " << k;
          ASSERT_EQ(a->value, b->value) << "key " << k;
          ASSERT_EQ(a->version, b->version) << "key " << k;
        }
      }
    }
  }
};

TEST(Server, LocalCommitAppliesOnAllReplicas) {
  Fixture f;
  f.settle();
  Client& c = f.dep->add_client(0);
  EXPECT_EQ(f.update(c, {1, 2}, "new"), Outcome::kCommit);
  f.assert_replicas_converged();
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(f.dep->server(0, r).store().get_latest(1)->value, "new");
  }
  EXPECT_EQ(f.dep->server(0, 0).sc(), 1);
}

TEST(Server, GlobalCommitAppliesAtBothPartitions) {
  Fixture f;
  f.settle();
  Client& c = f.dep->add_client(0);
  EXPECT_EQ(f.update(c, {1, 1001}, "xyz"), Outcome::kCommit);
  EXPECT_EQ(f.read_latest(0, 1), "xyz");
  EXPECT_EQ(f.read_latest(1, 1001), "xyz");
  f.assert_replicas_converged();
}

TEST(Server, ConcurrentConflictingLocalsOneAborts) {
  Fixture f;
  f.settle();
  Client& a = f.dep->add_client(0);
  Client& b = f.dep->add_client(0);

  Outcome oa = Outcome::kUnknown, ob = Outcome::kUnknown;
  // Both read key 5 before either commits, then both write it.
  a.begin();
  b.begin();
  int reads_done = 0;
  auto both_read = [&] {
    if (++reads_done < 2) return;
    a.write(5, "from-a");
    a.commit([&](Outcome o) { oa = o; });
    b.write(5, "from-b");
    b.commit([&](Outcome o) { ob = o; });
  };
  a.read(5, [&](bool, const std::string&) { both_read(); });
  b.read(5, [&](bool, const std::string&) { both_read(); });
  f.run_for(sim::sec(5));

  EXPECT_TRUE((oa == Outcome::kCommit) != (ob == Outcome::kCommit))
      << "exactly one of the two conflicting transactions commits, got " << to_string(oa)
      << "/" << to_string(ob);
  f.assert_replicas_converged();
}

TEST(Server, NonConflictingConcurrentLocalsBothCommit) {
  Fixture f;
  f.settle();
  Client& a = f.dep->add_client(0);
  Client& b = f.dep->add_client(0);
  Outcome oa = Outcome::kUnknown, ob = Outcome::kUnknown;
  a.begin();
  b.begin();
  a.read(3, [&](bool, const std::string&) {
    a.write(3, "a");
    a.commit([&](Outcome o) { oa = o; });
  });
  b.read(4, [&](bool, const std::string&) {
    b.write(4, "b");
    b.commit([&](Outcome o) { ob = o; });
  });
  f.run_for(sim::sec(5));
  EXPECT_EQ(oa, Outcome::kCommit);
  EXPECT_EQ(ob, Outcome::kCommit);
}

TEST(Server, SnapshotReadsAreStable) {
  Fixture f;
  f.settle();
  Client& reader = f.dep->add_client(0);
  Client& writer = f.dep->add_client(0);

  std::string first, second;
  reader.begin();
  reader.read(7, [&](bool, const std::string& v) { first = v; });
  f.run_for(sim::sec(1));  // snapshot for partition 0 is now fixed
  ASSERT_EQ(first, "a7");

  ASSERT_EQ(f.update(writer, {7}, "overwritten"), Outcome::kCommit);

  reader.read(7, [&](bool, const std::string& v) { second = v; });
  f.run_for(sim::sec(1));
  EXPECT_EQ(second, "a7") << "second read must observe the transaction's snapshot";
  EXPECT_EQ(f.read_latest(0, 7), "overwritten");
}

TEST(Server, CrossGlobalConflictSerializable) {
  // t1 reads 1@P0 writes 1001@P1; t2 reads 1001@P1 writes 1@P0, issued
  // concurrently. Committing both would be non-serializable; the stricter
  // global certification must abort at least one (Section III-B footnote).
  Fixture f;
  f.settle();
  Client& a = f.dep->add_client(0);
  Client& b = f.dep->add_client(1);

  Outcome oa = Outcome::kUnknown, ob = Outcome::kUnknown;
  int reads = 0;
  auto go = [&] {
    if (++reads < 2) return;
    a.write(1001, "t1");
    a.commit([&](Outcome o) { oa = o; });
    b.write(1, "t2");
    b.commit([&](Outcome o) { ob = o; });
  };
  a.begin();
  b.begin();
  // Each also reads what it writes (no blind writes).
  a.read_many({1, 1001}, [&](auto) { go(); });
  b.read_many({1001, 1}, [&](auto) { go(); });
  f.run_for(sim::sec(5));

  EXPECT_FALSE(oa == Outcome::kCommit && ob == Outcome::kCommit)
      << "both committing would be a serializability violation";
  f.assert_replicas_converged();
}

TEST(Server, ReadRoutedThroughWrongPartitionServer) {
  // Send a read for a partition-1 key to a partition-0 server: the server
  // must route it to a partition-1 replica, which answers the requester
  // directly (Section V: partitioning is transparent to clients).
  Fixture f;
  f.settle();

  struct Probe : sim::Process {
    using sim::Process::Process;
    ReadRespMsg resp;
    bool got = false;
    void on_message(const sim::Message& m, sim::ProcessId) override {
      if (m.type == msgtype::kReadResp) {
        util::Reader r(m.payload);
        resp = ReadRespMsg::decode(r);
        got = true;
      }
    }
  } probe(f.dep->network(), 20'000, "probe", sim::Location{0, 0});

  probe.send(f.dep->server(0, 0).self(), ReadReqMsg{1, 1005, kNoSnapshot}.to_message());
  f.run_for(sim::sec(1));
  ASSERT_TRUE(probe.got);
  EXPECT_TRUE(probe.resp.found);
  EXPECT_EQ(probe.resp.value, "b1005");
  EXPECT_GT(f.dep->server(0, 0).stats().reads_routed, 0u);
}

TEST(Server, ReadOnlySnapshotNeverAbortsAndSeesCommittedData) {
  Fixture f;
  f.settle();
  Client& w = f.dep->add_client(0);
  ASSERT_EQ(f.update(w, {1, 1001}, "committed-globally"), Outcome::kCommit);
  f.run_for(sim::msec(200));  // let gossip propagate the new snapshot

  Client& ro = f.dep->add_client(0);
  std::string v0, v1;
  Outcome outcome = Outcome::kUnknown;
  ro.begin_read_only([&] {
    ro.read_many({1, 1001}, [&](auto values) {
      v0 = values[0].value_or("<none>");
      v1 = values[1].value_or("<none>");
      ro.commit([&](Outcome o) { outcome = o; });
    });
  });
  f.run_for(sim::sec(2));
  EXPECT_EQ(outcome, Outcome::kCommit);
  EXPECT_EQ(v0, "committed-globally");
  EXPECT_EQ(v1, "committed-globally");
}

TEST(Server, StaleSnapshotOutsideWindowAborts) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
  spec.server.window_capacity = 3;
  Fixture f(spec);
  f.settle();

  Client& slow = f.dep->add_client(0);
  Client& fast = f.dep->add_client(0);

  slow.begin();
  slow.read(9, [](bool, const std::string&) {});
  f.run_for(sim::sec(1));  // slow's snapshot at partition 0 is fixed at 0

  // Push 6 commits through, evicting the slow transaction's snapshot from
  // the 3-entry window.
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(f.update(fast, {static_cast<Key>(10 + i)}, "fill"), Outcome::kCommit);
  }

  Outcome slow_outcome = Outcome::kUnknown;
  slow.write(9, "too-late");
  slow.commit([&](Outcome o) { slow_outcome = o; });
  f.run_for(sim::sec(5));
  EXPECT_EQ(slow_outcome, Outcome::kAbort);
  EXPECT_GT(f.dep->server(0, 0).stats().stale_snapshot_aborts, 0u);
}

TEST(Server, MinorityReplicaCrashStillCommits) {
  Fixture f;
  f.settle();
  f.dep->server(0, 2).crash();
  Client& c = f.dep->add_client(0);
  EXPECT_EQ(f.update(c, {1}, "works"), Outcome::kCommit);
  EXPECT_EQ(f.update(c, {1, 1001}, "works-globally"), Outcome::kCommit);
}

TEST(Server, CrashedContactMakesClientTimeout) {
  Fixture f;
  f.settle();
  Client& c = f.dep->add_client(0);

  c.begin();
  c.read(1, [](bool, const std::string&) {});
  f.run_for(sim::sec(1));

  // The whole partition 0 group dies before the commit request.
  for (std::uint32_t r = 0; r < 3; ++r) f.dep->server(0, r).crash();
  Outcome o = Outcome::kCommit;
  c.write(1, "never");
  c.commit([&](Outcome out) { o = out; });
  f.sim().run_until(f.sim().now() + sim::sec(130));  // beyond the 120s client timeout
  EXPECT_EQ(o, Outcome::kUnknown);
}

/// The submitter's forward to partition 1 is lost (links blocked during
/// submission); partition 0 delivers the transaction and waits for votes.
/// After missing_vote_timeout the leader abcasts an abort request to the
/// silent partition, which votes abort, aborting the transaction
/// everywhere (Section IV-F). With speculation on, partition 0 applies the
/// global speculatively while it waits, and the abort rolls it back.
void run_half_submitted_global(bool speculation) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
  spec.server.missing_vote_timeout = sim::msec(1500);
  spec.server.techniques.speculation = speculation;
  Fixture f(spec);
  f.settle();
  Client& c = f.dep->add_client(0);

  // Cut the contact (P0 leader, pid of server(0,0)) off from all P1 servers.
  const sim::ProcessId contact = f.dep->server(0, 0).self();
  for (std::uint32_t r = 0; r < 3; ++r) {
    f.dep->network().block_link(contact, f.dep->server(1, r).self());
  }

  Outcome o = Outcome::kUnknown;
  c.begin();
  // Read only from P0 so the execution phase doesn't need P1... but the
  // transaction must involve P1: read via another replica is fine since
  // client reads go to the nearest replica (server(1,0))... which is the
  // blocked leader only for the contact. Client->server(1,0) is not blocked.
  c.read_many({1, 1001}, [&](auto) {
    c.write(1, "half");
    c.write(1001, "half");
    c.commit([&](Outcome out) { o = out; });
  });
  // Let the submission happen (forward to P1 dropped), then heal so the
  // abort request can flow.
  f.run_for(sim::msec(500));
  f.dep->network().heal_all();
  f.run_for(sim::sec(10));

  EXPECT_EQ(o, Outcome::kAbort);
  EXPECT_EQ(f.read_latest(0, 1), "a1") << "no partial application at partition 0";
  EXPECT_EQ(f.read_latest(1, 1001), "b1001");
  EXPECT_GT(f.dep->server(0, 0).stats().abort_requests_sent, 0u);
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(f.dep->server(0, r).pending_count(), 0u);
    EXPECT_EQ(f.dep->server(1, r).pending_count(), 0u);
  }
  if (speculation) {
    for (std::uint32_t r = 0; r < 3; ++r) {
      const Server& s = f.dep->server(0, r);
      EXPECT_GT(s.stats().speculated_globals, 0u) << "replica " << r;
      EXPECT_GT(s.stats().spec_aborts, 0u) << "replica " << r;
      EXPECT_EQ(s.store().speculative_count(), 0u) << "replica " << r;
      EXPECT_EQ(s.store().get_latest(1)->value, "a1") << "replica " << r;
    }
  }
  f.assert_replicas_converged();
}

TEST(Server, AbortRequestResolvesHalfSubmittedGlobal) { run_half_submitted_global(false); }

TEST(Server, AbortRequestRollsBackHalfSubmittedSpeculatedGlobal) {
  run_half_submitted_global(true);
}

TEST(Server, CrashedReplicaRecoversAndConverges) {
  Fixture f;
  f.settle();
  Client& c = f.dep->add_client(0);
  ASSERT_EQ(f.update(c, {1, 2}, "one"), Outcome::kCommit);

  f.dep->server(0, 1).crash();
  ASSERT_EQ(f.update(c, {3, 4}, "two"), Outcome::kCommit);
  ASSERT_EQ(f.update(c, {1, 1001}, "three"), Outcome::kCommit);

  f.dep->server(0, 1).recover();
  f.run_for(sim::sec(10));
  f.assert_replicas_converged();
  EXPECT_EQ(f.dep->server(0, 1).store().get_latest(3)->value, "two");
  EXPECT_EQ(f.dep->server(0, 1).store().get_latest(1)->value, "three");
}

TEST(Server, DelayingEnabledGlobalStillCommits) {
  DeploymentSpec spec;
  spec.kind = DeploymentSpec::Kind::kWan1;
  spec.partitions = 2;
  spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
  spec.server.techniques.delaying_enabled = true;
  Fixture f(spec);
  f.sim().run_until(sim::sec(1));
  Client& c = f.dep->add_client(0);
  EXPECT_EQ(f.update(c, {1, 1001}, "delayed"), Outcome::kCommit);
  EXPECT_EQ(f.read_latest(1, 1001), "delayed");
}

TEST(Server, BloomCertificationCommitsAndConverges) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
  spec.server.techniques.bloom_readsets = true;
  Fixture f(spec);
  f.settle();
  Client& c = f.dep->add_client(0);
  EXPECT_EQ(f.update(c, {1, 2}, "bloomy"), Outcome::kCommit);
  EXPECT_EQ(f.update(c, {1, 1001}, "bloomy-global"), Outcome::kCommit);
  f.assert_replicas_converged();
}

TEST(Server, EmptyTransactionCommitsTrivially) {
  Fixture f;
  f.settle();
  Client& c = f.dep->add_client(0);
  Outcome o = Outcome::kUnknown;
  c.begin();
  c.commit([&](Outcome out) { o = out; });
  f.run_for(sim::sec(1));
  EXPECT_EQ(o, Outcome::kCommit);
}

TEST(Server, DynamicReorderThresholdBroadcast) {
  // Section IV-E: replicas change the reordering threshold by broadcasting
  // a new value of k; the switch happens at the same delivery index on
  // every replica.
  Fixture f;
  f.settle();
  ASSERT_EQ(f.dep->server(0, 0).reorder_threshold(), 0u);

  f.dep->server(0, 0).broadcast_reorder_threshold(64);
  f.run_for(sim::sec(1));
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(f.dep->server(0, r).reorder_threshold(), 64u) << "replica " << r;
  }
  EXPECT_EQ(f.dep->server(1, 0).reorder_threshold(), 0u)
      << "other partitions keep their own threshold";

  // The new threshold is live: a commit after the change still works.
  Client& c = f.dep->add_client(0);
  EXPECT_EQ(f.update(c, {1, 1001}, "post-change"), Outcome::kCommit);
  f.assert_replicas_converged();
}

TEST(Server, ThresholdChangeCodecRoundTrip) {
  const PartTx t = PartTx::decode(PartTx::make_set_threshold(320).encode());
  EXPECT_EQ(t.kind, PartTx::Kind::kSetThreshold);
  EXPECT_EQ(t.threshold, 320u);
}

}  // namespace
}  // namespace sdur

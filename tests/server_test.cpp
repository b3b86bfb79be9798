// SDUR server tests: end-to-end transaction semantics through the full
// stack (client -> contact server -> Paxos -> certification -> votes),
// including conflicts, snapshots, fault handling and recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "audit/audit.h"
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
    spec.paxos.log_write_latency = sim::usec(200);
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

/// A client of partition 0 whose requests go to partition 0's replica 1
/// first: its globals have a contact that is not partition 0's leader, so
/// the leader's abort requests flow while the contact is cut off.
std::unique_ptr<Client> follower_contact_client(Deployment& dep) {
  ClientConfig cfg = dep.spec().client;
  cfg.partitioning = dep.spec().partitioning;
  cfg.home = 0;
  for (PartitionId q = 0; q < dep.partition_count(); ++q) {
    cfg.servers.push_back({dep.server(q, 0).self(), dep.server(q, 1).self(),
                           dep.server(q, 2).self()});
  }
  std::swap(cfg.servers[0][0], cfg.servers[0][1]);
  return std::make_unique<Client>(dep.network(), 40'000, sim::Location{0, 0}, std::move(cfg));
}

/// Blocks every link between `pid` and partition p's replicas.
void cut_off(Deployment& dep, sim::ProcessId pid, PartitionId p) {
  for (std::uint32_t r = 0; r < dep.replica_count(); ++r) {
    dep.network().block_link(pid, dep.server(p, r).self());
  }
}

/// The submitter, partition 0's replica 1, is cut off from partition 1
/// until the global resolved, so its forward and its own re-forwards are
/// lost; partition 0 delivers the transaction and waits for votes. The
/// client is cut off right after its commit request, so no retry can
/// re-forward the lost part (see ReforwardOnRetryCompletesHalfSubmittedGlobal).
/// After missing_vote_timeout the leader abcasts an abort request to the
/// silent partition, which votes abort, aborting the transaction
/// everywhere (Section IV-F). With speculation on, partition 0 takes the
/// global out of its pending list while it waits, and the abort drops its
/// writes, which never reached the store. Once the client is back, a retry
/// learns the outcome.
void run_half_submitted_global(bool speculation) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
  spec.server.missing_vote_timeout = sim::msec(1500);
  spec.server.techniques.speculation = speculation;
  Fixture f(spec);
  f.settle();
  const std::unique_ptr<Client> client = follower_contact_client(*f.dep);
  Client& c = *client;
  cut_off(*f.dep, f.dep->server(0, 1).self(), 1);

  Outcome o = Outcome::kUnknown;
  c.begin();
  // Key 1 first: partition 0, read first, takes the commit request. The
  // client's own links are intact, so it reads key 1001 from partition 1.
  c.read(1, [&](bool, const std::string&) {
    c.read(1001, [&](bool, const std::string&) {
      c.write(1, "half");
      c.write(1001, "half");
      c.commit([&](Outcome out) { o = out; });
      f.dep->network().isolate(c.self());
    });
  });
  // Let the submission happen (forward to P1 dropped) and the leader's
  // abort request resolve the global, then heal the contact; the client
  // stays cut off until the contact learned the abort too.
  f.run_for(sim::msec(500));
  if (speculation) {
    // The global waits on its missing vote outside the pending list, its
    // slot still unresolved: this is what keeps a quiescence check on
    // sc() == certified() honest while a speculation is outstanding.
    for (std::uint32_t r = 0; r < 3; ++r) {
      const Server& s = f.dep->server(0, r);
      EXPECT_GT(s.stats().speculated_globals, 0u) << "replica " << r;
      EXPECT_EQ(s.pending_count(), 0u) << "replica " << r;
      EXPECT_LT(s.sc(), s.certified()) << "replica " << r;
    }
  }
  f.run_for(sim::sec(2));
  f.dep->network().heal_all();
  f.dep->network().isolate(c.self());
  f.run_for(sim::sec(3));
  f.dep->network().heal(c.self());
  f.run_for(sim::sec(7));

  EXPECT_EQ(o, Outcome::kAbort);
  EXPECT_GT(f.dep->server(0, 1).stats().timed_reforwards, 0u)
      << "the contact's own copies were lost";
  EXPECT_EQ(f.read_latest(0, 1), "a1") << "no partial application at partition 0";
  EXPECT_EQ(f.read_latest(1, 1001), "b1001");
  EXPECT_GT(f.dep->server(0, 0).stats().abort_requests_sent, 0u);
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(f.dep->server(0, r).pending_count(), 0u);
    EXPECT_EQ(f.dep->server(1, r).pending_count(), 0u);
    // The abort request closes the round it opens at partition 1.
    EXPECT_EQ(f.dep->server(0, r).round_count(), 0u) << "partition 0 replica " << r;
    EXPECT_EQ(f.dep->server(1, r).round_count(), 0u) << "partition 1 replica " << r;
    EXPECT_EQ(f.dep->server(1, r).stats().abort_request_aborts, 1u) << "replica " << r;
    EXPECT_EQ(f.dep->server(1, r).stats().cert_aborts, 0u) << "replica " << r;
  }
  if (speculation) {
    for (std::uint32_t r = 0; r < 3; ++r) {
      const Server& s = f.dep->server(0, r);
      EXPECT_GT(s.stats().speculated_globals, 0u) << "replica " << r;
      EXPECT_GT(s.stats().spec_aborts, 0u) << "replica " << r;
      EXPECT_EQ(s.sc(), s.certified()) << "replica " << r << ": an unresolved slot remains";
      EXPECT_EQ(s.store().get_latest(1)->value, "a1") << "replica " << r;
    }
  }
  f.assert_replicas_converged();
}

TEST(Server, AbortRequestResolvesHalfSubmittedGlobal) { run_half_submitted_global(false); }

TEST(Server, AbortRequestRollsBackHalfSubmittedSpeculatedGlobal) {
  run_half_submitted_global(true);
}

/// The half-submitted global again, with the client cut off for good,
/// partition 1's replica 0 down for good and the contact, partition 0's
/// replica 1, cut off from partition 1: the leader's first abort request
/// goes to the dead replica and is lost. The abort request is re-sent
/// every vote-resend period (500 ms) to the next replica, so the global
/// resolves within missing_vote_timeout plus two resend periods; the
/// contact learns the outcome once its links are back.
TEST(Server, AbortRequestIsResentToTheNextReplica) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
  spec.server.missing_vote_timeout = sim::msec(1500);
  Fixture f(spec);
  f.settle();
  f.dep->server(1, 0).crash();
  f.run_for(sim::sec(2));  // partition 1 elects a new leader
  const std::unique_ptr<Client> client = follower_contact_client(*f.dep);
  Client& c = *client;
  cut_off(*f.dep, f.dep->server(0, 1).self(), 1);

  Outcome o = Outcome::kUnknown;
  sim::Time committed_at = 0;
  c.begin();
  c.read(1, [&](bool, const std::string&) {
    c.read(1001, [&](bool, const std::string&) {
      c.write(1, "half");
      c.write(1001, "half");
      c.commit([&](Outcome out) { o = out; });
      committed_at = f.sim().now();
      f.dep->network().isolate(c.self());
    });
  });
  f.run_for(sim::msec(500));
  ASSERT_NE(committed_at, 0);
  EXPECT_EQ(f.dep->server(0, 0).pending_count(), 1u) << "waiting for partition 1's vote";
  f.sim().run_until(committed_at + spec.server.missing_vote_timeout + sim::msec(2 * 500));

  EXPECT_GE(f.dep->server(0, 0).stats().abort_requests_sent, 2u) << "sent, then re-sent";
  for (std::uint32_t r = 0; r < 3; ++r) {
    if (r != 1) {
      EXPECT_EQ(f.dep->server(0, r).pending_count(), 0u) << "partition 0 replica " << r;
      EXPECT_EQ(f.dep->server(0, r).round_count(), 0u) << "partition 0 replica " << r;
    }
    if (r == 0) continue;
    EXPECT_EQ(f.dep->server(1, r).stats().abort_request_aborts, 1u) << "replica " << r;
    EXPECT_EQ(f.dep->server(1, r).round_count(), 0u) << "partition 1 replica " << r;
  }
  f.dep->network().heal_all();
  f.run_for(sim::sec(2));
  EXPECT_EQ(f.dep->server(0, 1).pending_count(), 0u) << "the contact pulled the abort vote";
  EXPECT_EQ(f.dep->server(0, 1).round_count(), 0u) << "the contact pulled the abort vote";
  EXPECT_EQ(o, Outcome::kAbort) << "a retry learns the outcome";
  EXPECT_EQ(f.read_latest(0, 1), "a1");
}

/// Partition 1's replica 0 crashes while partition 1 stays busy, so its
/// live replicas gossip to partition 0 every 10 ms and replica 0 falls
/// silent there. A global's contact forwards partition 1's part to replica
/// 1 instead, and the global commits without a retry or a re-forward.
TEST(Server, ForwardsSkipASilentReplica) {
  Fixture f;
  f.settle();
  f.dep->server(1, 0).crash();
  Client& busy = f.dep->add_client(1);
  bool stop = false;
  std::function<void()> next = [&] {
    if (stop) return;
    busy.begin();
    busy.read(1001, [&](bool, const std::string&) {
      busy.write(1001, "busy");
      busy.commit([&](Outcome) { next(); });
    });
  };
  next();
  f.run_for(sim::sec(2));  // partition 1 has a new leader and serves the loop
  ASSERT_GT(f.dep->server(1, 1).stats().committed_local, 10u);

  Client& c = f.dep->add_client(0);
  Outcome o = Outcome::kUnknown;
  c.begin();
  c.read_many({1, 1002}, [&](auto) {
    c.write(1, "global");
    c.write(1002, "global");
    c.commit([&](Outcome out) { o = out; });
  });
  f.run_for(sim::msec(400));
  stop = true;
  EXPECT_EQ(o, Outcome::kCommit) << "within the first commit retry period";
  EXPECT_EQ(c.stats().commit_retries, 0u);
  for (Server* s : f.dep->servers()) EXPECT_EQ(s->stats().reforwards, 0u) << s->name();
  f.run_for(sim::sec(1));
  EXPECT_EQ(f.dep->server(1, 1).store().get_latest(1002)->value, "global");
}

/// Partition 1's leader crashes just before a global's commit request, and
/// partition 1 is idle, so the contact forwards its part to the dead
/// replica. With commit retries 120 s apart, only the contact can resend
/// it: 2·δ + 100 ms after the request it charges the dead replica a miss
/// and re-forwards the part to replica 1, which parks it until it wins the
/// election. The global commits within that period plus the election
/// time, with no client retry and no abort request.
TEST(Server, ContactReforwardsAPartLostWithACrashedLeader) {
  DeploymentSpec spec;
  spec.client.commit_retry_interval = sim::sec(120);
  Fixture f(spec);
  f.settle();
  Client& c = f.dep->add_client(0);

  Outcome o = Outcome::kUnknown;
  sim::Time done_at = 0;
  bool read = false;
  c.begin();
  c.read(1, [&](bool, const std::string&) {
    c.read(1001, [&](bool, const std::string&) { read = true; });
  });
  f.run_for(sim::msec(100));
  ASSERT_TRUE(read);
  f.dep->server(1, 0).crash();
  const sim::Time committed_at = f.sim().now();
  c.write(1, "resent");
  c.write(1001, "resent");
  c.commit([&](Outcome out) {
    o = out;
    done_at = f.sim().now();
  });
  f.run_for(sim::sec(2));

  ASSERT_EQ(o, Outcome::kCommit);
  const Server& contact = f.dep->server(0, 0);
  const paxos::PaxosEngine& next = f.dep->server(1, 1).engine();
  const sim::Time resend = 2 * contact.delay_estimate(1) + sim::msec(100);
  // The group's worst member delay d, from its election timeout 200 ms + 2d.
  const sim::Time d = (next.election_timeout() - sim::msec(200)) / 2;
  const sim::Time election =
      d + next.election_timeout() + sim::msec(50) + 2 * d + f.dep->spec().paxos.log_write_latency;
  EXPECT_LE(done_at - committed_at, resend + election + sim::msec(10));
  EXPECT_TRUE(next.is_leader());
  EXPECT_GE(contact.stats().timed_reforwards, 1u);
  EXPECT_EQ(c.stats().commit_retries, 0u);
  for (Server* s : f.dep->servers()) {
    EXPECT_EQ(s->stats().reforwards, 0u) << s->name();
    EXPECT_EQ(s->stats().abort_requests_sent, 0u) << s->name();
  }
  EXPECT_EQ(f.dep->server(1, 1).store().get_latest(1001)->value, "resent");
}

/// A global that partition 1 aborts at certification while its partition-0
/// part is lost: the client learns the abort from its partition-1 contact
/// and moves on, so nothing re-sends the part. A vote for it opens a round
/// at partition 0 only until the client's next transaction there raises
/// its floor; after that, a vote for it opens none (a late delivery would
/// vote abort without certification anyway).
TEST(Server, VotesForAGlobalThisPartitionNeverDeliversLeaveNoRound) {
  Fixture f;
  f.settle();
  Client& c = f.dep->add_client(0);
  Client& other = f.dep->add_client(1);

  // The transaction touches partition 1 first, so its contact is there.
  c.begin();
  c.read(1001, [](bool, const std::string&) {});
  f.run_for(sim::msec(50));
  c.read(1, [](bool, const std::string&) {});
  f.run_for(sim::msec(50));
  ASSERT_EQ(f.update(other, {1001}, "other"), Outcome::kCommit);

  // Partition 1 can no longer reach partition 0: the contact's forward
  // of the partition-0 part and partition 1's abort votes are lost.
  for (std::uint32_t a = 0; a < 3; ++a) {
    for (std::uint32_t b = 0; b < 3; ++b) {
      f.dep->network().block_link(f.dep->server(1, a).self(), f.dep->server(0, b).self());
    }
  }
  const TxId lost = c.current_txid();
  Outcome o = Outcome::kUnknown;
  c.write(1, "lost");
  c.write(1001, "lost");
  c.commit([&](Outcome out) { o = out; });
  f.run_for(sim::msec(300));
  ASSERT_EQ(o, Outcome::kAbort) << "1001 changed since the snapshot";
  f.dep->network().heal_all();

  auto vote_at_partition0 = [&] {
    for (std::uint32_t r = 0; r < 3; ++r) {
      other.send(f.dep->server(0, r).self(), VoteMsg{lost, 1, Outcome::kAbort}.to_message());
    }
    f.run_for(sim::msec(10));
  };
  vote_at_partition0();
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(f.dep->server(0, r).round_count(), 1u) << "replica " << r << ": a live id";
  }
  ASSERT_EQ(f.update(c, {2}, "next"), Outcome::kCommit);
  std::vector<std::uint64_t> dropped;
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(f.dep->server(0, r).round_count(), 0u) << "replica " << r << ": floor raised";
    dropped.push_back(f.dep->server(0, r).stats().stale_votes_dropped);
  }
  vote_at_partition0();
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(f.dep->server(0, r).round_count(), 0u) << "replica " << r;
    EXPECT_EQ(f.dep->server(0, r).stats().stale_votes_dropped, dropped[r] + 1) << "replica " << r;
  }
  EXPECT_EQ(f.read_latest(0, 1), "a1");
  EXPECT_EQ(f.read_latest(0, 2), "next");
}

/// The same half-submitted global, but the client keeps retrying: its
/// second attempt reaches replica 1 of partition 0, which delivered the
/// global and still lacks partition 1's vote. That replica re-forwards
/// partition 1's part to partition 1's replica 1, and the global commits
/// before any abort request.
TEST(Server, ReforwardOnRetryCompletesHalfSubmittedGlobal) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
  spec.server.missing_vote_timeout = sim::msec(1500);
  Fixture f(spec);
  f.settle();
  Client& c = f.dep->add_client(0);

  const sim::ProcessId contact = f.dep->server(0, 0).self();
  for (std::uint32_t r = 0; r < 3; ++r) {
    f.dep->network().block_link(contact, f.dep->server(1, r).self());
  }
  Outcome o = Outcome::kUnknown;
  c.begin();
  c.read_many({1, 1001}, [&](auto) {
    c.write(1, "retried");
    c.write(1001, "retried");
    c.commit([&](Outcome out) { o = out; });
  });
  // Past the first retry (500 ms): partition 1 has the part by now.
  f.run_for(sim::msec(700));
  EXPECT_EQ(f.dep->server(0, 1).stats().reforwards, 1u) << "one missing part, one re-forward";
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(f.dep->server(1, r).stats().delivered, 1u) << "partition 1 replica " << r;
  }
  // The contact still misses partition 1's vote; its vote requests pull it
  // once the links are back.
  f.dep->network().heal_all();
  f.run_for(sim::sec(5));

  EXPECT_EQ(o, Outcome::kCommit);
  EXPECT_EQ(f.read_latest(0, 1), "retried");
  EXPECT_EQ(f.read_latest(1, 1001), "retried");
  for (PartitionId p = 0; p < 2; ++p) {
    for (std::uint32_t r = 0; r < 3; ++r) {
      const Server& s = f.dep->server(p, r);
      EXPECT_EQ(s.stats().committed_global, 1u) << s.name();
      EXPECT_EQ(s.stats().abort_requests_sent, 0u) << s.name();
      EXPECT_EQ(s.round_count(), 0u) << s.name();
    }
  }
  f.assert_replicas_converged();
#if SDUR_AUDIT_ON
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
#endif
}

/// A client gives up on global s after its commit timeout and moves on.
/// Its contact, partition 1's leader, holds its own partition's broadcast
/// of s back for the fixed delay, so the client's next transaction s+1
/// reaches partition 1 first. Partition 1 then delivers s below the
/// client's floor: it votes abort without certifying, and every partition
/// completes s as abort (certified, s would commit after its successor).
TEST(Server, LateFirstDeliveryAbortsAtEveryPartition) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
  spec.server.techniques.delaying_enabled = true;
  spec.server.techniques.fixed_delay = sim::sec(2);
  spec.client.commit_timeout = sim::sec(1);
  Fixture f(spec);
  f.settle();
  Client& c = f.dep->add_client(1);

  // Reading partition 1 first makes it the primary: the contact is there.
  Outcome first = Outcome::kCommit;
  c.begin();
  c.read(1001, [&](bool, const std::string&) {
    c.read(1, [&](bool, const std::string&) {
      c.write(1001, "late");
      c.write(1, "late");
      c.commit([&](Outcome o) { first = o; });
    });
  });
  f.run_for(sim::msec(1500));
  ASSERT_EQ(first, Outcome::kUnknown) << "the client timed out on s";
  EXPECT_EQ(f.update(c, {1002}, "next"), Outcome::kCommit) << "s+1, a local of partition 1";

  EXPECT_EQ(f.read_latest(1, 1002), "next");
  for (PartitionId p = 0; p < 2; ++p) {
    for (std::uint32_t r = 0; r < 3; ++r) {
      const Server& s = f.dep->server(p, r);
      EXPECT_EQ(s.stats().aborted, 1u) << s.name() << " completes s as abort";
      EXPECT_EQ(s.stats().late_first_deliveries, p == 1 ? 1u : 0u) << s.name();
      EXPECT_EQ(s.pending_count(), 0u) << s.name();
      EXPECT_EQ(s.sc(), s.certified()) << s.name();
      EXPECT_EQ(s.store().get_latest(p == 0 ? 1 : 1001)->version, 0) << s.name();
    }
  }
  f.assert_replicas_converged();
#if SDUR_AUDIT_ON
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
#endif
}

/// The contact re-broadcasts a retried commit request it has not
/// delivered yet, so with retries faster than a Paxos round the same
/// TxId is decided several times at both partitions. Only the first
/// delivery is certified and applied; the others are dropped.
TEST(Server, DuplicateDeliveryIsCertifiedAndAppliedOnce) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
  spec.client.commit_retry_interval = sim::usec(100);
  Fixture f(spec);
  f.settle();
  Client& c = f.dep->add_client(0);
  ASSERT_EQ(f.update(c, {1, 1001}, "once"), Outcome::kCommit);

  for (PartitionId p = 0; p < 2; ++p) {
    for (std::uint32_t r = 0; r < 3; ++r) {
      const Server& s = f.dep->server(p, r);
      EXPECT_GT(s.stats().delivered, 1u) << s.name() << " delivered a duplicate";
      EXPECT_EQ(s.certified(), 1) << s.name() << " certified one transaction";
      EXPECT_EQ(s.stats().committed_global, 1u) << s.name();
      EXPECT_EQ(s.stats().aborted, 0u) << s.name();
      EXPECT_EQ(s.store().versions_of(p == 0 ? 1 : 1001)->size(), 2u) << s.name();
    }
  }
  f.assert_replicas_converged();
#if SDUR_AUDIT_ON
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
#endif
}

/// Partition 0's replica 2 misses a few hundred commits while down. Once
/// recovered, it drops every read, snapshot and commit request until a
/// leader's heartbeat shows it caught up, so a client's probe cannot bring
/// the client back to a replica that would hold its requests; from then on
/// it answers.
TEST(Server, RecoveredReplicaAnswersNoClientUntilCaughtUp) {
  Fixture f;
  f.settle();
  Server& replica = f.dep->server(0, 2);
  replica.crash();
  Client& busy = f.dep->add_client(0);
  std::uint32_t commits = 0;
  std::function<void()> next = [&] {
    if (commits == 300) return;
    busy.begin();
    busy.read(3, [&](bool, const std::string&) {
      busy.write(3, "busy");
      busy.commit([&](Outcome) {
        ++commits;
        next();
      });
    });
  };
  next();
  f.run_for(sim::sec(5));
  ASSERT_EQ(commits, 300u);

  struct Probe : sim::Process {
    using sim::Process::Process;
    std::size_t answers = 0;
    void on_message(const sim::Message& m, sim::ProcessId) override {
      if (m.type == msgtype::kReadResp || m.type == msgtype::kSnapshotResp ||
          m.type == msgtype::kOutcome) {
        ++answers;
      }
    }
    /// A read, a snapshot request and an empty transaction's commit.
    void ask(sim::ProcessId server, std::uint32_t seq) {
      send(server, ReadReqMsg{seq, 3, kNoSnapshot}.to_message());
      send(server, SnapshotReqMsg{seq}.to_message());
      Transaction tx;
      tx.id = make_tx_id(self(), seq);
      tx.client = self();
      send(server, CommitReqMsg{tx}.to_message());
    }
  } probe(f.dep->network(), 20'000, "probe", sim::Location{0, 0});

  replica.recover();
  ASSERT_FALSE(replica.engine().caught_up());
  probe.ask(replica.self(), 1);
  while (!replica.engine().caught_up() && f.sim().now() < sim::sec(20)) {
    f.run_for(sim::msec(1));
    ASSERT_EQ(probe.answers, 0u) << "answered before catching up";
  }
  ASSERT_TRUE(replica.engine().caught_up());
  EXPECT_EQ(replica.store().get_latest(3)->value, "busy");
  f.run_for(sim::msec(50));
  EXPECT_EQ(probe.answers, 0u) << "the early requests were dropped, not held";
  probe.ask(replica.self(), 2);
  f.run_for(sim::msec(50));
  EXPECT_EQ(probe.answers, 3u);
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

// Checkpointing, log truncation and state transfer tests: the durable-log
// API, Paxos-level transfer of truncated prefixes, and full SDUR-server
// checkpoint/restore including the deterministic certifier state.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sdur/deployment.h"
#include "util/bytes.h"
#include "workload/scenario.h"

namespace sdur {
namespace {

using paxos::InMemoryDurableLog;
using paxos::Value;

Value bytes_of(const char* s) {
  return util::Bytes(reinterpret_cast<const std::uint8_t*>(s),
                     reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s));
}

TEST(DurableLogCheckpoint, SaveLoadAndTruncate) {
  InMemoryDurableLog log;
  for (paxos::InstanceId i = 0; i < 10; ++i) {
    log.save_accepted(i, paxos::Ballot::make(1, 0), bytes_of("v"));
    log.save_decided(i, bytes_of("v"));
  }
  EXPECT_EQ(log.decided_prefix(), 10u);
  EXPECT_EQ(log.first_retained(), 0u);

  log.save_checkpoint(bytes_of("state"), 7);
  log.truncate_below(7);
  EXPECT_EQ(log.first_retained(), 7u);
  EXPECT_FALSE(log.load_decided(6).has_value());
  EXPECT_TRUE(log.load_decided(7).has_value());
  EXPECT_TRUE(log.accepted_from(0).begin()->first >= 7);
  EXPECT_EQ(log.decided_prefix(), 10u) << "prefix counts from the truncation point";

  const auto cp = log.load_checkpoint();
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->second, 7u);
  EXPECT_EQ(cp->first, bytes_of("state"));
}

// The log keeps one copy of a decided instance: deciding the bytes accepted
// here shares the accepted record's copy. The decided bytes must still come
// back intact whatever happens to that record afterwards.
TEST(DurableLogCheckpoint, DecidedBytesSurviveALaterAccept) {
  InMemoryDurableLog log;
  log.save_accepted(3, paxos::Ballot::make(1, 0), bytes_of("a"));
  log.save_decided(3, bytes_of("a"));
  EXPECT_EQ(log.load_decided(3), bytes_of("a"));
  log.save_accepted(3, paxos::Ballot::make(2, 1), bytes_of("b"));
  EXPECT_EQ(log.load_decided(3), bytes_of("a"));
  EXPECT_EQ(log.load_accepted(3)->value, bytes_of("b"));
  // Re-accepting the same bytes at a higher ballot changes nothing either.
  log.save_accepted(4, paxos::Ballot::make(1, 0), bytes_of("c"));
  log.save_decided(4, bytes_of("c"));
  log.save_accepted(4, paxos::Ballot::make(3, 2), bytes_of("c"));
  EXPECT_EQ(log.load_decided(4), bytes_of("c"));
  EXPECT_EQ(log.decided_prefix(), 0u) << "instances 0-2 are undecided";
}

TEST(DurableLogCheckpoint, CatchupDecisionKeepsItsOwnBytes) {
  InMemoryDurableLog log;
  log.save_decided(0, bytes_of("x"));  // no accepted record at all
  log.save_accepted(1, paxos::Ballot::make(1, 0), bytes_of("lost"));
  log.save_decided(1, bytes_of("y"));  // another ballot's value was chosen
  log.save_accepted(2, paxos::Ballot::make(1, 0), bytes_of("z"));
  log.save_decided(2, bytes_of("z"));  // the accepted value, learned by catchup
  EXPECT_EQ(log.load_decided(0), bytes_of("x"));
  EXPECT_EQ(log.load_decided(1), bytes_of("y"));
  EXPECT_EQ(log.load_accepted(1)->value, bytes_of("lost"));
  EXPECT_EQ(log.load_decided(2), bytes_of("z"));
  EXPECT_EQ(log.decided_prefix(), 3u);
}

TEST(DurableLogCheckpoint, DecidedBytesSurviveTruncation) {
  InMemoryDurableLog log;
  const auto value = [](paxos::InstanceId i) {
    const std::string s = "v" + std::to_string(i);
    return bytes_of(s.c_str());
  };
  for (paxos::InstanceId i = 0; i < 10; ++i) {
    log.save_accepted(i, paxos::Ballot::make(1, 0), value(i));
    log.save_decided(i, value(i));
  }
  log.truncate_below(4);
  for (paxos::InstanceId i = 0; i < 4; ++i) EXPECT_FALSE(log.load_decided(i).has_value());
  for (paxos::InstanceId i = 4; i < 10; ++i) EXPECT_EQ(log.load_decided(i), value(i)) << i;
  EXPECT_EQ(log.decided_prefix(), 10u);
}

std::vector<paxos::InstanceId> accepted_instances(const InMemoryDurableLog& log,
                                                  paxos::InstanceId low) {
  std::vector<paxos::InstanceId> out;
  for (const auto& [inst, rec] : log.accepted_from(low)) out.push_back(inst);
  return out;
}

// The log is dense from its truncation point: instances 1-4 below are holes
// in it, and must read as absent, not as empty records.
TEST(DenseDurableLog, GapsTruncationAndLateAccepts) {
  InMemoryDurableLog log;
  const paxos::Ballot b1 = paxos::Ballot::make(1, 0);
  const paxos::Ballot b2 = paxos::Ballot::make(2, 1);
  log.save_accepted(0, b1, bytes_of("a"));
  log.save_accepted(5, b1, bytes_of("f"));
  EXPECT_EQ(accepted_instances(log, 0), (std::vector<paxos::InstanceId>{0, 5}));
  EXPECT_EQ(log.accepted_from(0).at(5).value, bytes_of("f"));
  for (paxos::InstanceId i = 1; i < 5; ++i) {
    EXPECT_FALSE(log.load_accepted(i).has_value()) << i;
    EXPECT_FALSE(log.load_decided(i).has_value()) << i;
  }
  EXPECT_FALSE(log.load_accepted(6).has_value());
  log.save_decided(0, bytes_of("a"));
  log.save_decided(5, bytes_of("f"));
  EXPECT_EQ(log.decided_prefix(), 1u) << "the prefix stops at the gap";

  // Truncating past the last entry empties the log and moves its base.
  log.truncate_below(9);
  EXPECT_EQ(log.first_retained(), 9u);
  EXPECT_TRUE(log.accepted_from(0).empty());
  EXPECT_FALSE(log.load_decided(5).has_value());
  EXPECT_EQ(log.decided_prefix(), 9u);

  // An accept after it lands at the new base.
  log.save_accepted(9, b2, bytes_of("j"));
  log.save_decided(9, bytes_of("j"));
  EXPECT_EQ(log.load_accepted(9)->ballot, b2);
  EXPECT_EQ(log.load_decided(9), bytes_of("j"));
  EXPECT_EQ(log.decided_prefix(), 10u);

  // An accept below the truncation point is kept until the next truncation
  // covers it; the retained range and the decided prefix do not move.
  log.save_accepted(3, b2, bytes_of("d"));
  EXPECT_EQ(log.load_accepted(3)->value, bytes_of("d"));
  EXPECT_EQ(log.first_retained(), 9u);
  EXPECT_EQ(log.decided_prefix(), 10u);
  EXPECT_EQ(accepted_instances(log, 0), (std::vector<paxos::InstanceId>{3, 9}));
  EXPECT_EQ(accepted_instances(log, 4), (std::vector<paxos::InstanceId>{9}));
  log.truncate_below(9);
  EXPECT_FALSE(log.load_accepted(3).has_value());
  EXPECT_EQ(accepted_instances(log, 0), (std::vector<paxos::InstanceId>{9}));
  EXPECT_EQ(log.load_decided(9), bytes_of("j"));
}

TEST(CertifierCheckpoint, EncodeInstallRoundTrip) {
  Certifier a(100);
  PartTx g;
  g.id = 1;
  g.involved = {0, 1};
  g.snapshot = 0;
  g.readset = util::KeySet::exact({1});
  g.write_keys = util::KeySet::exact({1});
  g.writes = {{1, "g"}};
  PartTx l = g;
  l.id = 2;
  l.involved = {0};
  l.readset = util::KeySet::exact({2});
  l.write_keys = util::KeySet::exact({2});

  ASSERT_EQ(a.process(g, 10, 1).outcome, Outcome::kCommit);
  ASSERT_EQ(a.process(l, 11, 2).outcome, Outcome::kCommit);
  a.resolve(a.pop_head(), true);  // the reordered local resolves

  util::Writer w;
  a.encode(w);
  Certifier b(100);
  util::Reader r(w.data());
  b.install(r);

  EXPECT_EQ(b.certified(), a.certified());
  EXPECT_EQ(b.stable(), a.stable());
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.head().tx.id, 1u);
  EXPECT_EQ(b.head().rt, 10u);
  EXPECT_EQ(b.head().version, 1);
  ASSERT_NE(b.slot(2), nullptr);
  EXPECT_EQ(b.slot(2)->status, Certifier::SlotStatus::kCommitted);
  EXPECT_EQ(b.slot(1)->status, Certifier::SlotStatus::kPending);

  // Certification decisions continue identically on both.
  PartTx t3 = l;
  t3.id = 3;
  t3.snapshot = 0;
  const auto ra = a.process(t3, 20, 3);
  const auto rb = b.process(t3, 20, 3);
  EXPECT_EQ(ra.outcome, rb.outcome);
  EXPECT_EQ(ra.version, rb.version);
}

struct CheckpointFixture {
  std::unique_ptr<Deployment> dep;

  explicit CheckpointFixture(sim::Time checkpoint_interval, ServerConfig server = {}) {
    DeploymentSpec spec;
    spec.partitions = 2;
    spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
    spec.paxos.log_write_latency = sim::usec(200);
    spec.server = std::move(server);
    spec.server.checkpoint_interval = checkpoint_interval;
    dep = std::make_unique<Deployment>(spec);
    for (Key k = 0; k < 50; ++k) dep->load(k, "a" + std::to_string(k));
    for (Key k = 1000; k < 1050; ++k) dep->load(k, "b" + std::to_string(k));
    dep->start();
  }

  void run_for(sim::Time t) { dep->run_until(dep->simulator().now() + t); }

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

  void assert_partition_converged(PartitionId p) {
    Server& ref = dep->server(p, 0);
    for (std::uint32_t rep = 1; rep < 3; ++rep) {
      Server& other = dep->server(p, rep);
      ASSERT_EQ(ref.sc(), other.sc()) << "replica " << rep;
      for (Key k : ref.store().keys()) {
        auto a = ref.store().get_latest(k);
        auto b = other.store().get_latest(k);
        ASSERT_TRUE(b.has_value()) << "key " << k;
        ASSERT_EQ(a->value, b->value) << "key " << k;
      }
    }
  }
};

TEST(ServerCheckpoint, PeriodicCheckpointsTruncateTheLog) {
  CheckpointFixture f(sim::msec(500));
  f.run_for(sim::msec(400));
  Client& c = f.dep->add_client(0);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(f.update(c, {static_cast<Key>(i)}, "x"), Outcome::kCommit);
  }
  f.run_for(sim::sec(2));  // let a checkpoint fire after the traffic
  Server& s = f.dep->server(0, 0);
  EXPECT_GT(s.engine().stats().checkpoints, 0u);
  EXPECT_GT(s.engine().log().first_retained(), 0u) << "log prefix was truncated";
  EXPECT_TRUE(s.engine().log().load_checkpoint().has_value());
}

TEST(ServerCheckpoint, RecoveryRestoresFromCheckpointNotFullReplay) {
  CheckpointFixture f(sim::msec(500));
  f.run_for(sim::msec(400));
  Client& c = f.dep->add_client(0);
  for (int i = 0; i < 15; ++i) {
    ASSERT_EQ(f.update(c, {static_cast<Key>(i)}, "v1"), Outcome::kCommit);
  }
  f.run_for(sim::sec(2));  // checkpoint covers the 15 commits

  Server& victim = f.dep->server(0, 1);
  victim.crash();
  ASSERT_EQ(f.update(c, {30, 31}, "after-crash"), Outcome::kCommit);
  victim.recover();
  f.run_for(sim::sec(5));

  EXPECT_EQ(victim.store().get_latest(5)->value, "v1");
  EXPECT_EQ(victim.store().get_latest(30)->value, "after-crash");
  f.assert_partition_converged(0);
  // Replay was bounded: far fewer deliveries processed than total commits.
  EXPECT_LT(victim.stats().delivered, 15u) << "recovery replayed only the post-checkpoint tail";
}

TEST(ServerCheckpoint, LaggingReplicaGetsStateTransfer) {
  CheckpointFixture f(sim::msec(300));
  f.run_for(sim::msec(400));
  Client& c = f.dep->add_client(0);

  // Cut replica (0,2) off, then commit enough traffic for checkpoints to
  // truncate the log past everything it missed.
  Server& lagger = f.dep->server(0, 2);
  f.dep->network().isolate(lagger.self());
  for (int i = 0; i < 25; ++i) {
    ASSERT_EQ(f.update(c, {static_cast<Key>(i)}, "gen2"), Outcome::kCommit);
  }
  f.run_for(sim::sec(2));
  ASSERT_GT(f.dep->server(0, 0).engine().log().first_retained(), 0u);

  f.dep->network().heal(lagger.self());
  f.run_for(sim::sec(8));

  EXPECT_GT(lagger.engine().stats().state_transfers_installed, 0u)
      << "the truncated prefix must arrive as a checkpoint";
  EXPECT_EQ(lagger.store().get_latest(5)->value, "gen2");
  f.assert_partition_converged(0);

  // And the healed replica keeps participating normally afterwards.
  ASSERT_EQ(f.update(c, {40, 41}, "gen3"), Outcome::kCommit);
  f.run_for(sim::sec(2));
  EXPECT_EQ(lagger.store().get_latest(40)->value, "gen3");
}

/// Encoded store of a replica, for byte-for-byte comparison.
util::Bytes store_bytes(const Server& s) {
  util::Writer w;
  s.store().encode(w);
  return std::move(w).take();
}

TEST(ServerCheckpoint, StateTransferCarriesSpeculatedGlobalUntilItsVotesArrive) {
  ServerConfig server;
  server.techniques.speculation = true;
  CheckpointFixture f(sim::msec(300), server);
  f.run_for(sim::msec(400));

  // Replica (0,2) is cut off, so it can only learn of the global from a
  // state transfer.
  Server& lagger = f.dep->server(0, 2);
  f.dep->network().isolate(lagger.self());

  Client& g = f.dep->add_client(0);
  Outcome global = Outcome::kUnknown;
  g.begin();
  g.read_many({1, 1001}, [&](auto) {
    g.write(1, "global");
    g.write(1001, "global");
    g.commit([&](Outcome o) { global = o; });
  });
  // Withhold partition 1's votes: the moment partition 1 decides the
  // global, before it certifies and votes, cut it off from partition 0.
  const auto p1_decided = [&] {
    std::uint64_t n = 0;
    for (std::uint32_t r = 0; r < 3; ++r) {
      n += f.dep->server(1, r).engine().stats().decided_instances;
    }
    return n;
  };
  const std::uint64_t decided_before = p1_decided();
  for (int step = 0; step < 100000 && p1_decided() == decided_before; ++step) {
    f.run_for(sim::usec(1));
  }
  ASSERT_GT(p1_decided(), decided_before);
  for (std::uint32_t a = 0; a < 3; ++a) {
    for (std::uint32_t b = 0; b < 3; ++b) {
      f.dep->network().block_link(f.dep->server(0, a).self(), f.dep->server(1, b).self());
    }
  }
  f.run_for(sim::msec(500));
  Server& donor = f.dep->server(0, 0);
  ASSERT_GT(donor.stats().speculated_globals, 0u);
  ASSERT_LT(donor.sc(), donor.certified()) << "the speculated global's slot is unresolved";

  // A blind write commits key 1 above the speculated global, then locals
  // commit until checkpoints truncate the log past the global.
  Client& c = f.dep->add_client(0);
  Outcome blind = Outcome::kUnknown;
  c.begin();
  c.write(1, "blind");
  c.commit([&](Outcome o) { blind = o; });
  f.run_for(sim::msec(200));
  ASSERT_EQ(blind, Outcome::kCommit);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(f.update(c, {static_cast<Key>(10 + i)}, "local"), Outcome::kCommit);
  }
  ASSERT_GT(donor.engine().log().first_retained(), 0u);

  f.dep->network().heal(lagger.self());
  f.run_for(sim::sec(3));
  ASSERT_GT(lagger.engine().stats().state_transfers_installed, 0u);
  EXPECT_LT(lagger.sc(), lagger.certified()) << "the installed global still waits on its votes";
  EXPECT_EQ(store_bytes(lagger), store_bytes(donor)) << "no replica holds the global's writes";
  EXPECT_EQ(global, Outcome::kUnknown);

  f.dep->network().heal_all();
  f.run_for(sim::sec(10));
  EXPECT_EQ(global, Outcome::kCommit);
  EXPECT_GT(lagger.stats().spec_commits, 0u) << "the installed round finalized the commit";
  for (std::uint32_t r = 0; r < 3; ++r) {
    const Server& s = f.dep->server(0, r);
    EXPECT_EQ(s.sc(), s.certified()) << "replica " << r;
    EXPECT_EQ(store_bytes(s), store_bytes(lagger)) << "replica " << r;
    // The global's write sits below the blind write that committed first.
    const auto* chain = s.store().versions_of(1);
    ASSERT_NE(chain, nullptr);
    ASSERT_EQ(chain->size(), 3u) << "replica " << r;
    EXPECT_EQ((*chain)[1].value, "global") << "replica " << r;
    EXPECT_EQ(chain->back().value, "blind") << "replica " << r;
  }
}

TEST(ServerCheckpoint, WorkloadWithCheckpointsStaysSerializableAndConverges) {
  workload::Scenario sc;
  sc.spec.partitions = 2;
  sc.spec.paxos.log_write_latency = sim::usec(300);
  sc.spec.server.checkpoint_interval = sim::msec(400);
  sc.run = {.clients = 12, .warmup = sim::msec(500), .measure = sim::sec(5)};
  sc.micro = {.items_per_partition = 50, .global_fraction = 0.3};
  // Crash and recover a replica mid-run so recovery uses a checkpoint
  // while traffic continues. A checkpoint that claimed deliveries still
  // queued on the CPU would make the recovered replica skip them, and it
  // would certify against another state than its peers.
  sc.faults.crashes = {{.partition = 0, .replica = 1, .at = sim::sec(3), .down = sim::sec(1)}};
  sc.drain = sim::sec(20);
  sc.history = true;
  const workload::ScenarioResult r = workload::run_scenario(sc);

  ASSERT_TRUE(r.drained);
  ASSERT_GT(r.dep->server(0, 0).engine().stats().checkpoints, 0u);
  EXPECT_TRUE(r.agree);
  EXPECT_TRUE(r.serializable) << r.why;
  EXPECT_EQ(r.new_violations, 0u);
}

/// The deduplication state a checkpoint carries is bounded. On the
/// sdur_sim defaults (LAN, 2 partitions, 64 closed-loop clients, 10%
/// globals) with 5 s checkpoints, the bytes beside the store and the
/// certifier sections are no larger at 120 s than at 60 s, when the
/// outcome history is already full; every delivered id used to ride in
/// every checkpoint. (The store is bounded by GC and the certifier by its
/// window capacity; their bytes vary with the keys their slots hold.) One
/// replica per partition keeps the two simulated minutes short: the state
/// is per replica.
TEST(ServerCheckpoint, DedupStateStaysBoundedUnderSteadyLoad) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.replicas = 1;
  spec.partitioning = workload::MicroWorkload::make_partitioning(2, 100'000);
  spec.server.checkpoint_interval = sim::sec(5);
  Deployment dep(spec);

  workload::RunConfig cfg;
  cfg.clients = 64;
  cfg.settle = sim::msec(1200);
  cfg.warmup = sim::sec(1);
  cfg.measure = sim::sec(120) - cfg.settle - cfg.warmup;
  workload::MicroWorkload wl(workload::MicroConfig{});

  auto dedup_bytes = [&dep, &cfg] {
    std::vector<std::size_t> out;
    for (Server* s : dep.servers()) {
      util::Writer store;
      s->store().encode(store);
      util::Writer cert;
      s->certifier_for_test().encode(cert);
      out.push_back(s->encode_state().size() - store.data().size() - cert.data().size());
      EXPECT_EQ(s->session_count(), cfg.clients) << s->name();
    }
    return out;
  };
  std::vector<std::size_t> at_60s;
  dep.simulator().schedule_at(sim::sec(60), [&] {
    for (Server* s : dep.servers()) EXPECT_EQ(s->outcome_count(), 200'000u) << s->name();
    at_60s = dedup_bytes();
  });
  workload::run_experiment(dep, wl, cfg);
  const std::vector<std::size_t> at_120s = dedup_bytes();

  ASSERT_EQ(at_60s.size(), at_120s.size());
  for (std::size_t i = 0; i < at_120s.size(); ++i) {
    EXPECT_LE(at_120s[i], at_60s[i]) << dep.servers()[i]->name();
  }
}

}  // namespace
}  // namespace sdur

// Multi-Paxos atomic broadcast tests: ordering, leader failover, message
// loss, catchup, durable-log recovery — the safety and liveness properties
// SDUR relies on (Section II-A).
#include <gtest/gtest.h>

#include "paxos/engine.h"
#include "sim/process.h"

namespace sdur::paxos {
namespace {

Value int_value(std::uint64_t v) {
  util::Writer w;
  w.u64(v);
  return std::move(w).take();
}

std::uint64_t int_of(const Value& v) {
  util::Reader r(v);
  return r.u64();
}

class PaxosHost : public sim::Process {
 public:
  PaxosHost(sim::Network& net, sim::ProcessId pid, sim::Location loc, GroupConfig cfg)
      : sim::Process(net, pid, "paxos-" + std::to_string(pid), loc) {
    engine_ = std::make_unique<PaxosEngine>(*this, std::move(cfg),
                                            std::make_unique<InMemoryDurableLog>(),
                                            [this](const Value& v) { delivered.push_back(int_of(v)); });
  }

  void start() { engine_->start(); }
  PaxosEngine& engine() { return *engine_; }

  std::vector<std::uint64_t> delivered;

 protected:
  void on_message(const sim::Message& m, sim::ProcessId from) override {
    if (PaxosEngine::handles(m.type)) engine_->handle_message(m, from);
  }
  void on_recover() override {
    delivered.clear();  // verify full replay from the durable log
    engine_->on_recover();
  }

 private:
  std::unique_ptr<PaxosEngine> engine_;
};

class PaxosGroup : public ::testing::Test {
 protected:
  static constexpr int kN = 3;

  sim::Simulator sim;
  std::unique_ptr<sim::Network> net;
  std::vector<std::unique_ptr<PaxosHost>> hosts;

  void SetUp() override {
    sim::Topology topo = sim::Topology::lan();
    topo.set_jitter(0.05);
    net = std::make_unique<sim::Network>(sim, topo, 3);
    GroupConfig cfg;
    for (int i = 0; i < kN; ++i) cfg.members.push_back(static_cast<sim::ProcessId>(i + 1));
    cfg.log_write_latency = sim::usec(200);
    cfg.pipeline_window = 16;  // force batching once 16 instances are open
    for (int i = 0; i < kN; ++i) {
      GroupConfig c = cfg;
      c.self_index = static_cast<std::uint32_t>(i);
      hosts.push_back(std::make_unique<PaxosHost>(*net, static_cast<sim::ProcessId>(i + 1),
                                                  sim::Location{0, static_cast<std::uint16_t>(i)},
                                                  std::move(c)));
    }
    for (auto& h : hosts) h->start();
  }

  void propose_at(int host, std::uint64_t v) { hosts[host]->engine().propose(int_value(v)); }

  /// Asserts that every pair of hosts delivered consistent prefixes.
  void assert_prefix_consistency() {
    for (int a = 0; a < kN; ++a) {
      for (int b = a + 1; b < kN; ++b) {
        const auto& da = hosts[a]->delivered;
        const auto& db = hosts[b]->delivered;
        const std::size_t n = std::min(da.size(), db.size());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(da[i], db[i]) << "hosts " << a << " and " << b << " diverge at index " << i;
        }
      }
    }
  }
};

TEST_F(PaxosGroup, ElectsLeaderAndDeliversInOrder) {
  sim.run_until(sim::msec(200));
  EXPECT_TRUE(hosts[0]->engine().is_leader()) << "member 0 campaigns at startup";
  for (std::uint64_t v = 1; v <= 5; ++v) propose_at(0, v);
  sim.run_until(sim::sec(1));
  for (auto& h : hosts) {
    ASSERT_EQ(h->delivered.size(), 5u);
    EXPECT_EQ(h->delivered, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  }
}

TEST_F(PaxosGroup, NonLeaderProposalIsForwarded) {
  sim.run_until(sim::msec(200));
  propose_at(2, 42);
  sim.run_until(sim::sec(1));
  for (auto& h : hosts) {
    ASSERT_EQ(h->delivered.size(), 1u);
    EXPECT_EQ(h->delivered[0], 42u);
  }
}

TEST_F(PaxosGroup, ConcurrentProposersStillTotallyOrdered) {
  sim.run_until(sim::msec(200));
  for (std::uint64_t v = 0; v < 30; ++v) propose_at(static_cast<int>(v % 3), 100 + v);
  sim.run_until(sim::sec(2));
  ASSERT_EQ(hosts[0]->delivered.size(), 30u);
  assert_prefix_consistency();
  for (auto& h : hosts) {
    auto sorted = h->delivered;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::uint64_t> expect;
    for (std::uint64_t v = 0; v < 30; ++v) expect.push_back(100 + v);
    EXPECT_EQ(sorted, expect) << "every proposed value delivered exactly once";
  }
}

TEST_F(PaxosGroup, BatchingPacksValuesIntoFewerInstances) {
  sim.run_until(sim::msec(200));
  for (std::uint64_t v = 0; v < 100; ++v) propose_at(0, v);
  sim.run_until(sim::sec(2));
  EXPECT_EQ(hosts[1]->delivered.size(), 100u);
  EXPECT_LT(hosts[0]->engine().stats().proposed_batches, 40u)
      << "values should batch into fewer Paxos instances";
}

TEST_F(PaxosGroup, LeaderCrashFailsOver) {
  sim.run_until(sim::msec(200));
  for (std::uint64_t v = 1; v <= 3; ++v) propose_at(0, v);
  sim.run_until(sim::msec(400));
  hosts[0]->crash();
  sim.run_until(sim::sec(3));  // member 1's election timeout fires
  EXPECT_TRUE(hosts[1]->engine().is_leader() || hosts[2]->engine().is_leader());
  propose_at(1, 10);
  propose_at(2, 11);
  sim.run_until(sim::sec(6));
  for (int i = 1; i < kN; ++i) {
    EXPECT_EQ(hosts[i]->delivered.size(), 5u) << "host " << i;
  }
  assert_prefix_consistency();
}

TEST_F(PaxosGroup, SubmissionsLostWithTheLeaderAreRedrivenOnceANewOneIsKnown) {
  sim.run_until(sim::msec(200));
  hosts[0]->crash();
  // Both followers still believe in member 0 and forward to it: all lost.
  for (std::uint64_t v = 1; v <= 4; ++v) propose_at(2, v);
  for (std::uint64_t v = 11; v <= 13; ++v) propose_at(1, v);
  // Member 1 campaigns and member 2 hears of it: values submitted now go
  // to the candidate, which buffers them until it wins.
  auto candidate_known = [&] {
    return hosts[1]->engine().leader_hint() == 2 && hosts[2]->engine().leader_hint() == 2;
  };
  while (!candidate_known() && sim.now() < sim::sec(3)) sim.run_until(sim.now() + sim::usec(10));
  ASSERT_FALSE(hosts[1]->engine().is_leader());
  propose_at(1, 14);
  propose_at(2, 5);
  sim::Time elected = 0;
  while (elected == 0 && sim.now() < sim::sec(3)) {
    sim.run_until(sim.now() + sim::usec(100));
    if (hosts[1]->engine().is_leader()) elected = sim.now();
  }
  ASSERT_NE(elected, 0) << "member 1 takes over";
  // Member 1 re-drives its lost values on election, ahead of the buffered
  // one; member 2 on the new leader's first heartbeat (separate forwards,
  // which the network may reorder). Both well within the 600 ms resend.
  // Value 5 went to the candidate, not the dead leader: it is not
  // re-driven, so nothing is delivered twice.
  sim.run_until(elected + sim::msec(50));
  auto only = [](const std::vector<std::uint64_t>& delivered, std::uint64_t lo,
                 std::uint64_t hi) {
    std::vector<std::uint64_t> out;
    for (std::uint64_t v : delivered) {
      if (v >= lo && v <= hi) out.push_back(v);
    }
    return out;
  };
  for (int i = 1; i < kN; ++i) {
    EXPECT_EQ(hosts[i]->delivered.size(), 9u) << "host " << i;
    EXPECT_EQ(only(hosts[i]->delivered, 11, 14), (std::vector<std::uint64_t>{11, 12, 13, 14}))
        << "member 1's values in submission order, host " << i;
    std::vector<std::uint64_t> of_member2 = only(hosts[i]->delivered, 1, 5);
    std::ranges::sort(of_member2);
    EXPECT_EQ(of_member2, (std::vector<std::uint64_t>{1, 2, 3, 4, 5})) << "host " << i;
  }
  assert_prefix_consistency();
}

TEST_F(PaxosGroup, MinorityCrashKeepsDelivering) {
  sim.run_until(sim::msec(200));
  hosts[2]->crash();
  for (std::uint64_t v = 1; v <= 10; ++v) propose_at(0, v);
  sim.run_until(sim::sec(2));
  EXPECT_EQ(hosts[0]->delivered.size(), 10u);
  EXPECT_EQ(hosts[1]->delivered.size(), 10u);
}

TEST_F(PaxosGroup, MajorityCrashBlocksThenResumesOnRecovery) {
  sim.run_until(sim::msec(200));
  hosts[1]->crash();
  hosts[2]->crash();
  propose_at(0, 7);
  sim.run_until(sim::sec(3));
  EXPECT_TRUE(hosts[0]->delivered.empty()) << "no quorum, nothing may be decided";
  hosts[1]->recover();
  sim.run_until(sim::sec(10));
  EXPECT_EQ(hosts[0]->delivered.size(), 1u) << "decision completes once a quorum is back";
  EXPECT_EQ(hosts[1]->delivered.size(), 1u);
}

TEST_F(PaxosGroup, ToleratesHeavyMessageLoss) {
  net->set_loss_rate(0.2);
  sim.run_until(sim::msec(500));
  for (std::uint64_t v = 1; v <= 20; ++v) propose_at(0, v);
  sim.run_until(sim::sec(20));
  net->set_loss_rate(0.0);
  sim.run_until(sim::sec(30));
  for (auto& h : hosts) {
    EXPECT_EQ(h->delivered.size(), 20u) << "quasi-reliability via resends/catchup";
  }
  assert_prefix_consistency();
}

TEST_F(PaxosGroup, IsolatedReplicaCatchesUpAfterHeal) {
  sim.run_until(sim::msec(200));
  net->isolate(3);
  for (std::uint64_t v = 1; v <= 50; ++v) propose_at(0, v);
  sim.run_until(sim::sec(2));
  EXPECT_TRUE(hosts[2]->delivered.empty());
  net->heal(3);
  sim.run_until(sim::sec(6));
  EXPECT_EQ(hosts[2]->delivered.size(), 50u) << "heartbeat-driven catchup";
  assert_prefix_consistency();
}

TEST_F(PaxosGroup, RecoveryReplaysFromDurableLog) {
  sim.run_until(sim::msec(200));
  for (std::uint64_t v = 1; v <= 10; ++v) propose_at(0, v);
  sim.run_until(sim::sec(1));
  ASSERT_EQ(hosts[2]->delivered.size(), 10u);
  const std::vector<std::uint64_t> before = hosts[2]->delivered;
  hosts[2]->crash();
  sim.run_until(sim::sec(2));
  hosts[2]->recover();  // clears delivered, then replays
  sim.run_until(sim::sec(4));
  EXPECT_EQ(hosts[2]->delivered, before) << "full replay of the same values from the durable log";
  assert_prefix_consistency();
}

TEST_F(PaxosGroup, RecoveredReplicaAlsoLearnsNewValues) {
  sim.run_until(sim::msec(200));
  for (std::uint64_t v = 1; v <= 5; ++v) propose_at(0, v);
  sim.run_until(sim::sec(1));
  hosts[2]->crash();
  for (std::uint64_t v = 6; v <= 10; ++v) propose_at(0, v);
  sim.run_until(sim::sec(2));
  hosts[2]->recover();
  sim.run_until(sim::sec(8));
  EXPECT_EQ(hosts[2]->delivered.size(), 10u) << "replay + catchup of missed values";
  assert_prefix_consistency();
}

TEST_F(PaxosGroup, AcceptorPersistsBeforeAcknowledging) {
  sim.run_until(sim::msec(200));
  propose_at(0, 99);
  sim.run_until(sim::sec(1));
  for (auto& h : hosts) {
    EXPECT_GT(h->engine().log().write_count(), 0u);
    EXPECT_TRUE(h->engine().log().load_decided(0).has_value());
  }
}

// A value is a slice of the Phase 2A that carried it, and every member
// (the leader too, which receives its own 2A) accepts that one message: the
// three logs hold one buffer per instance, not three copies.
TEST_F(PaxosGroup, MembersLogOneSharedBufferPerInstance) {
  sim.run_until(sim::msec(200));
  for (std::uint64_t v = 0; v < 60; ++v) propose_at(static_cast<int>(v % 3), 500 + v);
  sim.run_until(sim::sec(2));
  const DurableLog& first = hosts[0]->engine().log();
  const InstanceId decided = first.decided_prefix();
  ASSERT_GT(decided, 1u);
  for (InstanceId i = 0; i < decided; ++i) {
    const auto mine = first.load_decided(i);
    ASSERT_TRUE(mine.has_value()) << i;
    ASSERT_FALSE(mine->empty()) << i;
    for (int h = 1; h < kN; ++h) {
      const auto theirs = hosts[h]->engine().log().load_decided(i);
      ASSERT_TRUE(theirs.has_value()) << "instance " << i << " host " << h;
      EXPECT_EQ(theirs->data(), mine->data()) << "instance " << i << " host " << h;
    }
  }
  for (auto& h : hosts) EXPECT_EQ(h->delivered.size(), 60u);
}

TEST_F(PaxosGroup, SafetyUnderChurn) {
  // Random loss + repeated leader crashes and recoveries must never cause
  // divergent delivery — the core Paxos safety property.
  net->set_loss_rate(0.1);
  std::uint64_t v = 0;
  for (int round = 0; round < 6; ++round) {
    sim.run_until(sim::sec(2 * round + 1));
    for (int i = 0; i < 5; ++i) propose_at(round % kN, ++v);
    const int victim = round % kN;
    hosts[static_cast<std::size_t>(victim)]->crash();
    sim.run_until(sim::sec(2 * round + 2));
    hosts[static_cast<std::size_t>(victim)]->recover();
  }
  net->set_loss_rate(0);
  sim.run_until(sim::sec(60));
  assert_prefix_consistency();
  // Liveness under eventual quiet: everything proposed while a leader and a
  // quorum were up should be delivered; at minimum the group made progress.
  EXPECT_GT(hosts[0]->delivered.size(), 0u);
}

}  // namespace
}  // namespace sdur::paxos

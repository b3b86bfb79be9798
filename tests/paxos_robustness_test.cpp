// Additional Paxos robustness tests: duplicated/reordered messages, stale
// proposers, forward buffering while leaderless, ballot arithmetic, and the
// election timing that deployments derive from their member delays.
#include <gtest/gtest.h>

#include "paxos/engine.h"
#include "sdur/deployment.h"
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

class Host : public sim::Process {
 public:
  Host(sim::Network& net, sim::ProcessId pid, sim::Location loc, GroupConfig cfg)
      : sim::Process(net, pid, "h" + std::to_string(pid), loc) {
    engine_ = std::make_unique<PaxosEngine>(*this, std::move(cfg),
                                            std::make_unique<InMemoryDurableLog>(),
                                            [this](const Value& v) { delivered.push_back(int_of(v)); });
  }
  PaxosEngine& engine() { return *engine_; }
  std::vector<std::uint64_t> delivered;

 protected:
  void on_message(const sim::Message& m, sim::ProcessId from) override {
    if (PaxosEngine::handles(m.type)) engine_->handle_message(m, from);
  }
  void on_recover() override {
    delivered.clear();
    engine_->on_recover();
  }

 private:
  std::unique_ptr<PaxosEngine> engine_;
};

struct Group {
  sim::Simulator sim;
  std::unique_ptr<sim::Network> net;
  std::vector<std::unique_ptr<Host>> hosts;

  Group() {
    sim::Topology topo = sim::Topology::lan();
    topo.set_jitter(0.05);
    net = std::make_unique<sim::Network>(sim, topo, 17);
    GroupConfig cfg;
    cfg.members = {1, 2, 3};
    cfg.log_write_latency = sim::usec(200);
    for (std::uint32_t i = 0; i < 3; ++i) {
      GroupConfig c = cfg;
      c.self_index = i;
      hosts.push_back(std::make_unique<Host>(*net, i + 1,
                                             sim::Location{0, static_cast<std::uint16_t>(i)},
                                             std::move(c)));
    }
    for (auto& h : hosts) h->engine().start();
    sim.run_until(sim::msec(200));
  }

  void run_for(sim::Time t) { sim.run_until(sim.now() + t); }
};

TEST(Ballot, OrderingAndComponents) {
  const Ballot a = Ballot::make(1, 0);
  const Ballot b = Ballot::make(1, 2);
  const Ballot c = Ballot::make(2, 0);
  EXPECT_LT(a, b) << "same round: proposer index breaks ties";
  EXPECT_LT(b, c) << "higher round dominates any index";
  EXPECT_EQ(c.round(), 2u);
  EXPECT_EQ(b.proposer_index(), 2u);
  EXPECT_FALSE(Ballot{}.valid());
  EXPECT_TRUE(a.valid());
}

TEST(PaxosRobustness, DuplicatedMessagesAreHarmless) {
  // Replay every Phase 2 message by sending each value twice through a
  // duplicating relay: delivery must stay exactly-once per instance.
  Group g;
  g.hosts[0]->engine().propose(int_value(1));
  g.run_for(sim::msec(100));

  // Manually re-inject a decided instance's Phase2B to everyone.
  const sim::Message dup = Phase2B{g.hosts[0]->engine().current_ballot(), 0, 1}.to_message();
  for (auto& h : g.hosts) g.net->send(1, h->self(), dup);
  g.run_for(sim::msec(100));
  for (auto& h : g.hosts) {
    EXPECT_EQ(h->delivered, (std::vector<std::uint64_t>{1}));
  }
}

TEST(PaxosRobustness, StaleProposerGetsNacked) {
  Group g;
  // Raise host 2's promise to a high ballot by injecting a Phase 1A.
  g.net->send(g.hosts[1]->self(), g.hosts[2]->self(),
              Phase1A{Ballot::make(50, 1), 0}.to_message());
  g.run_for(sim::msec(50));
  // A Phase2A at the old ballot must be rejected.
  const Ballot stale = Ballot::make(1, 0);
  g.net->send(g.hosts[0]->self(), g.hosts[2]->self(), Phase2A{stale, 99, int_value(7)}.to_message());
  g.run_for(sim::msec(100));
  EXPECT_TRUE(g.hosts[2]->delivered.empty());
  EXPECT_FALSE(g.hosts[2]->engine().log().load_accepted(99).has_value())
      << "stale-ballot accept must not be persisted";
}

TEST(PaxosRobustness, ValuesProposedWhileLeaderlessAreBuffered) {
  Group g;
  // Kill the leader, then immediately propose at a follower — before any
  // new leader exists. The value must survive the leaderless window.
  g.hosts[0]->crash();
  g.hosts[1]->engine().propose(int_value(42));
  g.run_for(sim::sec(5));  // election timeout + new leader + flush
  EXPECT_EQ(g.hosts[1]->delivered, (std::vector<std::uint64_t>{42}));
  EXPECT_EQ(g.hosts[2]->delivered, (std::vector<std::uint64_t>{42}));
}

TEST(PaxosRobustness, ForwardWhileTheLeaderIsSuspectIsParkedUntilTheNextLeader) {
  Group g;
  g.hosts[0]->crash();
  g.run_for(sim::msec(150));  // host 2 has missed two heartbeats
  // A value forwarded to host 2 (a remote partition's part, say): relayed
  // to the dead leader it would be lost, and nobody here re-drives it.
  g.net->send(g.hosts[1]->self(), g.hosts[2]->self(), Forward{int_value(7)}.to_message());
  g.run_for(sim::msec(10));
  EXPECT_EQ(g.hosts[2]->engine().stats().forwards_parked, 1u);

  while (!g.hosts[1]->engine().is_leader() && g.sim.now() < sim::sec(3)) {
    EXPECT_TRUE(g.hosts[1]->delivered.empty());
    g.run_for(sim::msec(1));
  }
  ASSERT_TRUE(g.hosts[1]->engine().is_leader());
  g.run_for(sim::msec(20));  // its first heartbeat flushes host 2's buffer
  for (int h : {1, 2}) EXPECT_EQ(g.hosts[h]->delivered, (std::vector<std::uint64_t>{7})) << h;
  g.run_for(sim::sec(3));
  for (int h : {1, 2}) EXPECT_EQ(g.hosts[h]->delivered, (std::vector<std::uint64_t>{7})) << h;
}

TEST(PaxosRobustness, ParkedSubmissionRelayedToTheCandidateIsDeliveredOnce) {
  Group g;
  g.hosts[0]->crash();
  g.run_for(sim::msec(150));
  g.hosts[2]->engine().propose(int_value(1));  // parked: the leader is suspect
  // Host 1 campaigns; once host 2 has promised it, a second submission
  // relays both values to the candidate. The candidate's first heartbeat
  // must not re-drive value 1 as if it had gone to the dead leader.
  while (g.hosts[2]->engine().leader_hint() != g.hosts[1]->self() && g.sim.now() < sim::sec(3)) {
    g.run_for(sim::usec(10));
  }
  ASSERT_FALSE(g.hosts[1]->engine().is_leader());
  g.hosts[2]->engine().propose(int_value(2));
  g.run_for(sim::sec(2));
  for (int h : {1, 2}) EXPECT_EQ(g.hosts[h]->delivered, (std::vector<std::uint64_t>{1, 2})) << h;
}

TEST(PaxosRobustness, LeaderChangePreservesPrefix) {
  Group g;
  for (std::uint64_t v = 1; v <= 5; ++v) g.hosts[0]->engine().propose(int_value(v));
  g.run_for(sim::msec(300));
  const auto before = g.hosts[1]->delivered;
  ASSERT_EQ(before.size(), 5u);

  g.hosts[0]->crash();
  g.run_for(sim::sec(3));
  g.hosts[1]->engine().propose(int_value(6));
  g.run_for(sim::sec(3));

  ASSERT_GE(g.hosts[1]->delivered.size(), 6u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(g.hosts[1]->delivered[i], before[i]) << "prefix immutable across leader change";
  }
  EXPECT_EQ(g.hosts[1]->delivered.back(), 6u);
}

TEST(PaxosRobustness, CrashDuringPhase1DoesNotLoseDecidedValues) {
  Group g;
  for (std::uint64_t v = 1; v <= 3; ++v) g.hosts[0]->engine().propose(int_value(v));
  g.run_for(sim::msec(300));

  // Host 1 campaigns, then crashes mid-election; host 2 takes over later.
  g.hosts[0]->crash();
  g.run_for(sim::msec(700));  // host 1's election window opens
  g.hosts[1]->crash();
  g.run_for(sim::msec(200));
  g.hosts[1]->recover();
  g.run_for(sim::sec(10));

  // All decided values remain readable everywhere that is alive.
  for (int h : {1, 2}) {
    std::vector<std::uint64_t> sorted = g.hosts[h]->delivered;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::uint64_t>{1, 2, 3})) << "host " << h;
  }
}

TEST(PaxosRobustness, SelfContainedGroupOfFive) {
  // n=5 tolerates two crash failures.
  sim::Simulator sim;
  sim::Topology topo = sim::Topology::lan();
  sim::Network net(sim, topo, 5);
  GroupConfig cfg;
  cfg.members = {1, 2, 3, 4, 5};
  cfg.log_write_latency = sim::usec(200);
  std::vector<std::unique_ptr<Host>> hosts;
  for (std::uint32_t i = 0; i < 5; ++i) {
    GroupConfig c = cfg;
    c.self_index = i;
    hosts.push_back(std::make_unique<Host>(net, i + 1,
                                           sim::Location{0, static_cast<std::uint16_t>(i)},
                                           std::move(c)));
  }
  for (auto& h : hosts) h->engine().start();
  sim.run_until(sim::msec(200));

  hosts[3]->crash();
  hosts[4]->crash();
  for (std::uint64_t v = 1; v <= 10; ++v) hosts[0]->engine().propose(int_value(v));
  sim.run_until(sim::sec(2));
  EXPECT_EQ(hosts[0]->delivered.size(), 10u);
  EXPECT_EQ(hosts[1]->delivered.size(), 10u);
  EXPECT_EQ(hosts[2]->delivered.size(), 10u);
}

/// A one-partition deployment of `kind`, started and run for a second.
std::unique_ptr<Deployment> started(DeploymentSpec::Kind kind, double jitter = 0.05) {
  DeploymentSpec spec;
  spec.kind = kind;
  spec.partitions = 1;
  spec.partitioning = std::make_shared<RangePartitioning>(1, 100);
  spec.jitter = jitter;
  auto dep = std::make_unique<Deployment>(spec);
  dep->start();
  dep->run_until(sim::sec(1));
  return dep;
}

/// Member 1 replaces a crashed leader within its election deadline plus
/// its stagger plus one Phase-1 round trip. The deadline runs from the
/// last heartbeat, one delay after the crash at worst, and is checked once
/// per tick (50 ms). Member 2, one stagger later, never campaigns.
void expect_fast_failover(DeploymentSpec::Kind kind, sim::Time member_delay) {
  const std::unique_ptr<Deployment> dep = started(kind);
  const PaxosEngine& next = dep->server(0, 1).engine();
  ASSERT_EQ(next.config().member_delay, member_delay);
  EXPECT_LT(next.election_timeout(), sim::msec(600)) << "faster than a hand-built group";
  EXPECT_GE(next.election_stagger(), 2 * member_delay + sim::msec(50))
      << "a Phase 1A sent a tick late still outruns the next candidate";

  const sim::Time crashed_at = dep->simulator().now();
  dep->server(0, 0).crash();
  while (!next.is_leader() && dep->simulator().now() < crashed_at + sim::sec(3)) {
    dep->run_until(dep->simulator().now() + sim::msec(1));
  }
  ASSERT_TRUE(next.is_leader());
  const sim::Time d = member_delay;
  const sim::Time round_trip = 2 * d + dep->spec().paxos.log_write_latency;
  EXPECT_LE(dep->simulator().now() - crashed_at,
            d + next.election_timeout() + sim::msec(50) + next.election_stagger() + round_trip);
  EXPECT_EQ(next.stats().leader_elections, 1u);
  EXPECT_EQ(dep->server(0, 2).engine().stats().leader_elections, 0u) << "no duel";
}

TEST(PaxosFailover, Wan1LeaderIsReplacedWithinTheDerivedDeadline) {
  expect_fast_failover(DeploymentSpec::Kind::kWan1, sim::usec(47'250));  // 45 ms + 5%
}

TEST(PaxosFailover, Wan2LeaderIsReplacedWithinTheDerivedDeadline) {
  expect_fast_failover(DeploymentSpec::Kind::kWan2, sim::usec(89'250));  // 85 ms + 5%
}

TEST(PaxosFailover, LanLeaderIsReplacedWithinTheDerivedDeadline) {
  expect_fast_failover(DeploymentSpec::Kind::kLan, sim::usec(1'050));  // 1 ms + 5%
}

TEST(PaxosFailover, JitteredFaultFreeGroupsElectOneLeader) {
  for (const auto kind : {DeploymentSpec::Kind::kLan, DeploymentSpec::Kind::kWan1,
                          DeploymentSpec::Kind::kWan2}) {
    const std::unique_ptr<Deployment> dep = started(kind, 0.3);
    dep->run_until(sim::sec(10));
    std::uint64_t elections = 0;
    for (std::uint32_t r = 0; r < 3; ++r) {
      elections += dep->server(0, r).engine().stats().leader_elections;
    }
    EXPECT_EQ(elections, 1u) << "kind " << static_cast<int>(kind);
    EXPECT_TRUE(dep->server(0, 0).engine().is_leader());
  }
}

}  // namespace
}  // namespace sdur::paxos

// Additional Paxos robustness tests: duplicated/reordered messages, stale
// proposers, forward buffering while leaderless, ballot arithmetic, catch-up
// of a far-behind follower, the election timing that deployments derive
// from their member delays, and the nearest-first candidate order.
#include <gtest/gtest.h>

#include <array>

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
  /// When a heartbeat from another member last arrived.
  sim::Time last_heartbeat_at = 0;
  /// When this host's own Phase 1As arrived back: one per campaign.
  std::vector<sim::Time> campaigns;
  /// Catch-up requests this host received.
  std::size_t catchup_requests = 0;

 protected:
  void on_message(const sim::Message& m, sim::ProcessId from) override {
    if (m.type == msgtype::kHeartbeat && from != self()) last_heartbeat_at = now();
    if (m.type == msgtype::kPhase1A && from == self()) campaigns.push_back(now());
    if (m.type == msgtype::kCatchupReq) ++catchup_requests;
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

/// Runs `g` until host 2 has missed two heartbeats of the crashed leader:
/// host 1, the successor, campaigns some 5 ms later.
void run_until_host2_suspects(Group& g) {
  g.run_for(sim::msec(5));  // heartbeats in flight land
  g.sim.run_until(g.hosts[2]->last_heartbeat_at + sim::msec(101));
  ASSERT_TRUE(g.hosts[1]->campaigns.empty());
}

TEST(PaxosRobustness, ForwardWhileTheLeaderIsSuspectIsParkedUntilTheNextLeader) {
  Group g;
  g.hosts[0]->crash();
  run_until_host2_suspects(g);
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
  run_until_host2_suspects(g);
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

/// Member 1, the crashed leader's successor and its nearest member,
/// replaces it within its suspicion timeout plus one Phase-1 round trip:
/// it ranks first, so no stagger applies. The timeout runs from the last
/// heartbeat, one delay after the crash at worst. Member 2, one stagger
/// later, never campaigns.
void expect_fast_failover(DeploymentSpec::Kind kind, sim::Time member_delay) {
  const std::unique_ptr<Deployment> dep = started(kind);
  const PaxosEngine& next = dep->server(0, 1).engine();
  ASSERT_EQ(next.election_timeout(), sim::msec(200) + 2 * member_delay);
  EXPECT_LT(next.election_timeout(), sim::msec(600)) << "faster than the resend period";
  EXPECT_LT(next.suspicion_timeout(), next.election_timeout());
  EXPECT_GE(next.election_stagger(), 2 * member_delay + sim::msec(50))
      << "the next candidate hears the first one's Phase 1A before its own deadline";

  const sim::Time crashed_at = dep->simulator().now();
  dep->server(0, 0).crash();
  dep->run_until(crashed_at + sim::sec(3));
  ASSERT_TRUE(next.is_leader());
  const sim::Time d = member_delay;
  const sim::Time round_trip = 2 * d + dep->spec().paxos.log_write_latency;
  const sim::Time service = sim::msec(1);  // message handling along the way
  EXPECT_LE(next.elected_at() - crashed_at, d + next.suspicion_timeout() + round_trip + service);
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

/// The first campaign of `h` after `after`, measured from the heartbeat it
/// last heard before it: its election deadline.
sim::Time campaign_delay(const Host& h, sim::Time after) {
  for (sim::Time t : h.campaigns) {
    if (t > after) return t - h.last_heartbeat_at;
  }
  return -1;
}

/// Leader 0 crashes: member 1, its successor, campaigns at its suspicion
/// timeout after its last heartbeat (two heartbeats and a 5 ms slack),
/// from a timer at that deadline rather than at the next tick, not one
/// stagger later as its index would put it, and member 2 never
/// campaigns. (A LAN group: a jitter margin of 5% of 1 ms, and a stagger
/// of 52.1 ms.)
TEST(PaxosFailover, SuccessorOfTheDeadLeaderCampaignsAtTheTimeout) {
  Group g;
  const PaxosEngine& next = g.hosts[1]->engine();
  EXPECT_EQ(next.suspicion_timeout(), sim::usec(105'050));
  const sim::Time crashed_at = g.sim.now();
  g.hosts[0]->crash();
  g.run_for(sim::sec(2));
  ASSERT_TRUE(next.is_leader());
  const sim::Time delay = campaign_delay(*g.hosts[1], crashed_at);
  EXPECT_GE(delay, next.suspicion_timeout());
  EXPECT_LT(delay, next.suspicion_timeout() + sim::msec(1)) << "no stagger, no tick";
  EXPECT_TRUE(g.hosts[2]->campaigns.empty()) << "no duel";
}

/// Member 1 leads and crashes. In one region the candidates tie on their
/// delay to it, so member 2, its successor, campaigns first, at its
/// suspicion timeout, and member 0 (recovered, ranked second) never does.
/// (Across regions the nearest member goes first:
/// NearestMemberToTheDeadLeaderCampaignsFirst.)
TEST(PaxosFailover, NextMemberAfterTheDeadLeaderCampaignsFirst) {
  Group g;
  g.hosts[0]->crash();
  g.run_for(sim::sec(2));
  ASSERT_TRUE(g.hosts[1]->engine().is_leader());
  g.hosts[0]->recover();
  g.run_for(sim::sec(1));

  const sim::Time crashed_at = g.sim.now();
  g.hosts[1]->crash();
  g.run_for(sim::sec(2));
  const PaxosEngine& next = g.hosts[2]->engine();
  ASSERT_TRUE(next.is_leader());
  const sim::Time delay = campaign_delay(*g.hosts[2], crashed_at);
  EXPECT_GE(delay, next.suspicion_timeout());
  EXPECT_LT(delay, next.suspicion_timeout() + sim::msec(1)) << "no stagger for the successor";
  EXPECT_EQ(campaign_delay(*g.hosts[0], crashed_at), -1) << "member 0 ranks second: no duel";
}

/// The paper's three regions with link jitter `jitter`.
sim::Topology ec2_jittered(double jitter) {
  sim::Topology t = sim::Topology::ec2_three_regions();
  t.set_jitter(jitter);
  return t;
}

/// Three members placed at `locs` in the paper's three regions, with a
/// slow durable log (20 ms a write), started and run for a second: member
/// 0 leads.
struct GeoGroup {
  sim::Simulator sim;
  sim::Network net;
  std::vector<std::unique_ptr<Host>> hosts;

  explicit GeoGroup(const std::array<sim::Location, 3>& locs, double jitter = 0.05)
      : net(sim, ec2_jittered(jitter), 5) {
    GroupConfig cfg;
    cfg.members = {1, 2, 3};
    cfg.log_write_latency = sim::msec(20);
    for (std::uint32_t i = 0; i < 3; ++i) {
      GroupConfig c = cfg;
      c.self_index = i;
      hosts.push_back(std::make_unique<Host>(net, i + 1, locs[i], std::move(c)));
    }
    for (auto& h : hosts) h->engine().start();
    sim.run_until(sim::sec(1));
  }
  void run_for(sim::Time t) { sim.run_until(sim.now() + t); }
  std::uint64_t elections() const {
    std::uint64_t n = 0;
    for (const auto& h : hosts) n += h->engine().stats().leader_elections;
    return n;
  }
};

/// Shaped like a WAN 1 partition: members 0 and 1 in the EU, 1 ms apart,
/// member 2 in US-EAST, 45 ms away.
constexpr std::array<sim::Location, 3> kWan1Shape{
    {{sim::kEU, 0}, {sim::kEU, 1}, {sim::kUSEast, 2}}};

/// Leader 0 dies: member 1 campaigns at its suspicion timeout, and its
/// Phase 1 needs member 2's promise, a round trip of 90 ms plus a 20 ms
/// log write, longer than the suspicion timeout. The candidate waits out
/// its election timeout instead: one campaign, one new leader, no restart
/// mid-Phase-1.
TEST(PaxosFailover, Wan1ShapedGroupElectsOnceThroughTheAwayMember) {
  GeoGroup g(kWan1Shape);
  ASSERT_EQ(g.elections(), 1u);
  const PaxosEngine& next = g.hosts[1]->engine();
  const sim::Time crashed_at = g.sim.now();
  g.hosts[0]->crash();
  g.sim.run_until(crashed_at + sim::sec(3));
  ASSERT_TRUE(next.is_leader());
  ASSERT_EQ(g.hosts[1]->campaigns.size(), 1u) << "no restart mid-Phase-1";
  EXPECT_GT(next.elected_at() - g.hosts[1]->campaigns.front(), next.suspicion_timeout())
      << "the Phase 1 outlasts the suspicion timeout";
  EXPECT_TRUE(g.hosts[2]->campaigns.empty());
  EXPECT_EQ(g.elections(), 2u);
}

/// A follower's suspicion margin is its link's jitter spread: at 30%
/// jitter, 0.3 ms beside the leader and 13.5 ms 45 ms away.
TEST(PaxosFailover, SuspicionTimeoutCoversTheLinksJitter) {
  GeoGroup g(kWan1Shape, 0.3);
  ASSERT_TRUE(g.hosts[0]->engine().is_leader());
  EXPECT_EQ(g.hosts[0]->engine().suspicion_timeout(), sim::msec(105)) << "no link to itself";
  EXPECT_EQ(g.hosts[1]->engine().suspicion_timeout(), sim::msec(105) + sim::usec(300));
  EXPECT_EQ(g.hosts[2]->engine().suspicion_timeout(), sim::msec(105) + sim::usec(13'500));
}

/// Member 1 leads and dies: member 0, 1 ms from it, campaigns first, ahead
/// of member 2, its successor by index but 45 ms away in the other region.
TEST(PaxosFailover, NearestMemberToTheDeadLeaderCampaignsFirst) {
  GeoGroup g(kWan1Shape);
  g.hosts[0]->crash();
  g.run_for(sim::sec(2));
  ASSERT_TRUE(g.hosts[1]->engine().is_leader());
  g.hosts[0]->recover();
  g.run_for(sim::sec(1));

  const sim::Time crashed_at = g.sim.now();
  g.hosts[1]->crash();
  g.sim.run_until(crashed_at + sim::sec(3));
  const PaxosEngine& next = g.hosts[0]->engine();
  ASSERT_TRUE(next.is_leader());
  const sim::Time delay = campaign_delay(*g.hosts[0], crashed_at);
  EXPECT_GE(delay, next.suspicion_timeout());
  EXPECT_LT(delay, next.suspicion_timeout() + sim::msec(1)) << "no stagger for the nearest";
  EXPECT_EQ(campaign_delay(*g.hosts[2], crashed_at), -1) << "member 2 ranks second: no duel";
}

/// A follower in another region (45 ms away, so a catch-up round trip
/// spans two heartbeats) misses 1500 instances. It catches up with one
/// request per 256-value chunk: a full reply asks for the next chunk at
/// once, and heartbeats do not repeat the request in flight. It answers
/// as caught up only once it is.
TEST(PaxosRobustness, FarBehindFollowerCatchesUpOneRequestPerChunk) {
  sim::Simulator sim;
  sim::Network net(sim, sim::Topology::ec2_three_regions(), 11);
  GroupConfig cfg;
  cfg.members = {1, 2, 3};
  cfg.log_write_latency = sim::usec(200);
  const sim::Location locs[] = {{sim::kEU, 0}, {sim::kEU, 1}, {sim::kUSEast, 2}};
  std::vector<std::unique_ptr<Host>> hosts;
  for (std::uint32_t i = 0; i < 3; ++i) {
    GroupConfig c = cfg;
    c.self_index = i;
    hosts.push_back(std::make_unique<Host>(net, i + 1, locs[i], std::move(c)));
  }
  for (auto& h : hosts) h->engine().start();
  sim.run_until(sim::msec(200));

  hosts[2]->crash();
  // One value per instance: fewer than pipeline_window proposals at once
  // never share a batch.
  constexpr std::uint64_t kValues = 1500;
  for (std::uint64_t v = 0; v < kValues; ++v) {
    hosts[0]->engine().propose(int_value(v));
    if (v % 50 == 49) sim.run_until(sim.now() + sim::msec(10));
  }
  sim.run_until(sim.now() + sim::sec(1));
  ASSERT_EQ(hosts[0]->delivered.size(), kValues);

  hosts[2]->recover();
  const PaxosEngine& follower = hosts[2]->engine();
  EXPECT_FALSE(follower.caught_up());
  const InstanceId gap = hosts[0]->engine().next_deliver() - follower.next_deliver();
  ASSERT_GE(gap, kValues);
  sim.run_until(sim.now() + sim::sec(3));

  EXPECT_EQ(follower.next_deliver(), hosts[0]->engine().next_deliver());
  EXPECT_TRUE(follower.caught_up());
  EXPECT_LE(hosts[0]->catchup_requests, (gap + 255) / 256 + 1);
}

/// Leader 0 in US-WEST dies. Member 1 in US-EAST, nearest to it,
/// campaigns; member 2 in the EU promises it, and ranks first after it (45
/// ms from it, against 50 for the dead member 0). Member 1's Phase 1 takes
/// 90 ms plus a 20 ms log write, so its first heartbeat reaches member 2
/// after member 2's suspicion timeout would have run out. Having heard a
/// candidate, not a leader, member 2 waits out the election timeout: no
/// second campaign.
TEST(PaxosFailover, FollowerThatPromisedACandidateWaitsOutItsPhase1) {
  GeoGroup g({{{sim::kUSWest, 0}, {sim::kUSEast, 1}, {sim::kEU, 2}}});
  ASSERT_EQ(g.elections(), 1u);
  g.hosts[0]->crash();
  g.run_for(sim::sec(3));
  ASSERT_TRUE(g.hosts[1]->engine().is_leader());
  EXPECT_EQ(g.hosts[1]->campaigns.size(), 1u);
  EXPECT_TRUE(g.hosts[2]->campaigns.empty()) << "no duel";
  EXPECT_EQ(g.elections(), 2u);
}

}  // namespace
}  // namespace sdur::paxos

// Deployment builder tests: server placement, leader location, routing
// tables and the timing derived from the topology for the paper's
// LAN / WAN 1 / WAN 2 setups,
// and the counter lists every report sums and prints.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sdur/deployment.h"
#include "sim/fabric_stats.h"
#include "workload/scenario.h"

namespace sdur {
namespace {

DeploymentSpec spec_for(DeploymentSpec::Kind kind, PartitionId partitions = 2) {
  DeploymentSpec spec;
  spec.kind = kind;
  spec.partitions = partitions;
  spec.partitioning = std::make_shared<RangePartitioning>(partitions, 1000);
  return spec;
}

std::uint16_t region_of(Deployment& dep, Server& s) {
  return dep.network().topology().location(s.self()).region;
}

TEST(Deployment, LanPutsEveryoneInOneRegion) {
  Deployment dep(spec_for(DeploymentSpec::Kind::kLan));
  for (Server* s : dep.servers()) EXPECT_EQ(region_of(dep, *s), 0);
}

TEST(Deployment, Wan1MajorityInHomeRegion) {
  Deployment dep(spec_for(DeploymentSpec::Kind::kWan1));
  // Partition 0: home EU; replicas 0,1 in EU (distinct DCs), replica 2 away.
  EXPECT_EQ(dep.home_region(0), sim::kEU);
  EXPECT_EQ(dep.home_region(1), sim::kUSEast);
  EXPECT_EQ(region_of(dep, dep.server(0, 0)), sim::kEU);
  EXPECT_EQ(region_of(dep, dep.server(0, 1)), sim::kEU);
  EXPECT_EQ(region_of(dep, dep.server(0, 2)), sim::kUSEast)
      << "the minority replica serves reads near the other region";
  // Partition 1 mirrors it.
  EXPECT_EQ(region_of(dep, dep.server(1, 0)), sim::kUSEast);
  EXPECT_EQ(region_of(dep, dep.server(1, 1)), sim::kUSEast);
  EXPECT_EQ(region_of(dep, dep.server(1, 2)), sim::kEU);

  // Distinct availability zones within the home region (paper Section VI-A).
  const auto l0 = dep.network().topology().location(dep.server(0, 0).self());
  const auto l1 = dep.network().topology().location(dep.server(0, 1).self());
  EXPECT_NE(l0.datacenter, l1.datacenter);
}

TEST(Deployment, Wan2OneReplicaPerRegion) {
  Deployment dep(spec_for(DeploymentSpec::Kind::kWan2));
  for (PartitionId p = 0; p < 2; ++p) {
    std::set<std::uint16_t> regions;
    for (std::uint32_t r = 0; r < 3; ++r) regions.insert(region_of(dep, dep.server(p, r)));
    EXPECT_EQ(regions.size(), 3u) << "partition " << p << " must span all regions";
    EXPECT_EQ(region_of(dep, dep.server(p, 0)), dep.home_region(p))
        << "the bootstrap leader sits in the partition's home region";
  }
}

TEST(Deployment, BootstrapLeaderIsReplicaZero) {
  Deployment dep(spec_for(DeploymentSpec::Kind::kWan1));
  dep.start();
  dep.run_until(sim::msec(1000));
  for (PartitionId p = 0; p < 2; ++p) {
    EXPECT_TRUE(dep.server(p, 0).engine().is_leader()) << "partition " << p;
  }
}

TEST(Deployment, ClientHomingUsesHomeRegionAndLeader) {
  Deployment dep(spec_for(DeploymentSpec::Kind::kWan1));
  dep.start();
  Client& c0 = dep.add_client(0);
  Client& c1 = dep.add_client(1);
  EXPECT_EQ(dep.network().topology().location(c0.self()).region, sim::kEU);
  EXPECT_EQ(dep.network().topology().location(c1.self()).region, sim::kUSEast);
}

TEST(Deployment, RejectsMismatchedPartitioning) {
  DeploymentSpec spec = spec_for(DeploymentSpec::Kind::kLan, 2);
  spec.partitioning = std::make_shared<RangePartitioning>(4, 1000);  // wrong count
  EXPECT_THROW(Deployment dep(std::move(spec)), std::invalid_argument);
}

TEST(Deployment, RequiresPartitioning) {
  DeploymentSpec spec;
  spec.partitions = 2;
  EXPECT_THROW(Deployment dep(std::move(spec)), std::invalid_argument);
}

TEST(Deployment, ManyPartitionsGetDistinctGroups) {
  Deployment dep(spec_for(DeploymentSpec::Kind::kLan, 8));
  std::set<sim::ProcessId> pids;
  for (Server* s : dep.servers()) pids.insert(s->self());
  EXPECT_EQ(pids.size(), 24u);
  EXPECT_EQ(dep.partition_count(), 8u);
}

TEST(Deployment, PaxosTemplateReachesEveryEngine) {
  DeploymentSpec spec = spec_for(DeploymentSpec::Kind::kWan1);
  spec.paxos.max_batch = 8;
  spec.paxos.pipeline_window = 4;
  spec.paxos.log_write_latency = sim::msec(1);
  Deployment dep(spec);
  for (PartitionId p = 0; p < 2; ++p) {
    std::vector<sim::ProcessId> members;
    for (std::uint32_t r = 0; r < 3; ++r) members.push_back(dep.server(p, r).self());
    for (std::uint32_t r = 0; r < 3; ++r) {
      const paxos::GroupConfig& g = dep.server(p, r).engine().config();
      EXPECT_EQ(g.max_batch, 8u);
      EXPECT_EQ(g.pipeline_window, 4u);
      EXPECT_EQ(g.log_write_latency, sim::msec(1));
      EXPECT_EQ(g.members, members) << "partition " << p;
      EXPECT_EQ(g.self_index, r) << "partition " << p;
    }
  }
  // The deployment template models a BDB-style synchronous write; a bare
  // group keeps the faster default.
  EXPECT_EQ(DeploymentSpec{}.paxos.log_write_latency, sim::msec(4));
  EXPECT_EQ(paxos::GroupConfig{}.log_write_latency, sim::usec(500));
}

/// The Paxos timing each deployment derives from its topology at 5%
/// jitter, as DESIGN.md "Failover" quotes it: the election timeout T =
/// 200 ms + 2d and stagger S = 2d + 50 ms from the worst member delay d,
/// and each partition-0 replica's suspicion timeout while replica 0 leads
/// (105 ms plus the jitter of its link to replica 0).
TEST(Deployment, DerivedTimingMatchesTheDesignNumbers) {
  using sim::usec;
  struct Row {
    DeploymentSpec::Kind kind;
    sim::Time timeout;
    sim::Time stagger;
    std::array<sim::Time, 3> suspicion;
  };
  const Row rows[] = {
      // d = 1.05 ms: every replica in one region.
      {DeploymentSpec::Kind::kLan, usec(202'100), usec(52'100),
       {usec(105'000), usec(105'050), usec(105'050)}},
      // d = 47.25 ms: replica 2 away, across EU-US-EAST.
      {DeploymentSpec::Kind::kWan1, usec(294'500), usec(144'500),
       {usec(105'000), usec(105'050), usec(107'250)}},
      // d = 89.25 ms: replicas in the EU, US-EAST and US-WEST.
      {DeploymentSpec::Kind::kWan2, usec(378'500), usec(228'500),
       {usec(105'000), usec(107'250), usec(109'250)}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(static_cast<int>(row.kind));
    Deployment dep(spec_for(row.kind));
    for (PartitionId p = 0; p < 2; ++p) {
      for (std::uint32_t r = 0; r < 3; ++r) {
        const paxos::PaxosEngine& engine = dep.server(p, r).engine();
        EXPECT_EQ(engine.election_timeout(), row.timeout) << "partition " << p;
        EXPECT_EQ(engine.election_stagger(), row.stagger) << "partition " << p;
      }
    }
    for (std::uint32_t r = 0; r < 3; ++r) {
      EXPECT_EQ(dep.server(0, r).engine().suspicion_timeout(), row.suspicion[r]) << r;
    }
  }
}

TEST(Deployment, ReadsRouteToNearestReplica) {
  // Server (0, 0) is in partition 0's home region; partition 1's nearest
  // replica to it is replica 0 in the LAN and its away replica (index 2)
  // in WAN 1 (the EU one, not the US-EAST leader) and WAN 2.
  const std::pair<DeploymentSpec::Kind, std::uint32_t> rows[] = {
      {DeploymentSpec::Kind::kLan, 0},
      {DeploymentSpec::Kind::kWan1, 2},
      {DeploymentSpec::Kind::kWan2, 2},
  };
  for (const auto& [kind, nearest] : rows) {
    SCOPED_TRACE(static_cast<int>(kind));
    Deployment dep(spec_for(kind));
    EXPECT_EQ(dep.server(0, 0).read_replica(1), dep.server(1, nearest).self());
  }
}

TEST(Deployment, DelayEstimatesMatchRegionDistances) {
  // Server (0, 0)'s estimate of the one-way delay to partition 1: the
  // in-region delta in the LAN, EU -> US-EAST in WAN 1 and WAN 2.
  const std::pair<DeploymentSpec::Kind, sim::Time> rows[] = {
      {DeploymentSpec::Kind::kLan, sim::msec(1)},
      {DeploymentSpec::Kind::kWan1, sim::msec(45)},
      {DeploymentSpec::Kind::kWan2, sim::msec(45)},
  };
  for (const auto& [kind, estimate] : rows) {
    SCOPED_TRACE(static_cast<int>(kind));
    Deployment dep(spec_for(kind));
    const Server& s = dep.server(0, 0);
    EXPECT_EQ(s.delay_estimate(0), 0) << "own partition";
    EXPECT_EQ(s.delay_estimate(1), estimate);
  }
}

TEST(Deployment, ClientReadRetryFollowsTheRoundTrip) {
  // An EU client's read retry period to each partition-0 replica: the
  // round trip at 5% jitter plus kReadRetrySlack.
  using sim::usec;
  const std::pair<DeploymentSpec::Kind, std::array<sim::Time, 3>> rows[] = {
      {DeploymentSpec::Kind::kLan, {usec(22'100), usec(22'100), usec(22'100)}},
      {DeploymentSpec::Kind::kWan1, {usec(22'100), usec(22'100), usec(114'500)}},
      {DeploymentSpec::Kind::kWan2, {usec(22'100), usec(114'500), usec(198'500)}},
  };
  const sim::Time near = 2 * usec(1'050) + kReadRetrySlack;
  for (const auto& [kind, retry] : rows) {
    SCOPED_TRACE(static_cast<int>(kind));
    Deployment dep(spec_for(kind));
    const Client& c = dep.add_client(0);
    for (std::uint32_t r = 0; r < 3; ++r) {
      EXPECT_EQ(c.read_retry_period(dep.server(0, r).self()), retry[r]) << r;
    }
    // Partition 1's nearest replica to the EU is in the EU.
    EXPECT_EQ(c.read_retry_period(dep.server(0, 0).read_replica(1)), near)
        << "nearest replica";
  }
}

// A partition is loaded once, into an image every replica reads through;
// once it is shared, a load would reach no replica, so it throws.
TEST(Deployment, LoadAfterStartThrows) {
  Deployment dep(spec_for(DeploymentSpec::Kind::kLan));
  dep.load(1, "one");
  dep.start();
  EXPECT_THROW(dep.load(2, "two"), std::logic_error);
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(dep.server(0, r).store().get_latest(1)->value, "one");
    EXPECT_FALSE(dep.server(0, r).store().get_latest(2).has_value());
  }
}

/// Checks that every replica of each partition reads each key no replica
/// wrote (latest version 0 everywhere) from one buffer; returns how many
/// keys it checked.
std::size_t expect_unwritten_keys_shared(Deployment& dep) {
  std::size_t checked = 0;
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    const storage::MVStore& first = dep.server(p, 0).store();
    for (Key k : first.keys()) {
      bool unwritten = true;
      for (std::uint32_t r = 0; r < dep.replica_count(); ++r) {
        const auto v = dep.server(p, r).store().get_latest(k);
        unwritten = unwritten && v && v->version == 0;
      }
      if (!unwritten) continue;
      ++checked;
      const char* bytes = first.versions_of(k)->front().value.data();
      for (std::uint32_t r = 1; r < dep.replica_count(); ++r) {
        EXPECT_EQ(dep.server(p, r).store().versions_of(k)->front().value.data(), bytes)
            << "partition " << p << " replica " << r << " key " << k;
      }
    }
  }
  return checked;
}

TEST(Deployment, ReplicasOfAPartitionShareOneImage) {
  {
    Deployment dep(spec_for(DeploymentSpec::Kind::kWan1));
    for (Key k = 0; k < 100; ++k) dep.load(k, "a" + std::to_string(k));
    for (Key k = 1000; k < 1100; ++k) dep.load(k, "b" + std::to_string(k));
    dep.start();
    EXPECT_EQ(expect_unwritten_keys_shared(dep), 200u);
    for (Server* s : dep.servers()) EXPECT_EQ(s->store().own_key_count(), 0u) << s->name();
  }
  // A run in which replica 1 of partition 0 crashes and recovers: its
  // rollback to the initial load falls back to the shared image, and the
  // replay copies only the keys it writes.
  workload::Scenario sc;
  sc.spec.partitions = 2;
  sc.run = {.clients = 8, .warmup = sim::msec(200), .measure = sim::sec(2)};
  sc.micro = {.items_per_partition = 5000, .global_fraction = 0.2};
  sc.faults.crashes = {{.partition = 0, .replica = 1, .at = sim::sec(2), .down = sim::msec(500)}};
  sc.drain = sim::sec(5);
  const workload::ScenarioResult r = workload::run_scenario(sc);
  ASSERT_TRUE(r.drained);
  ASSERT_TRUE(r.agree);
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(expect_unwritten_keys_shared(*r.dep), 0u);
  const storage::MVStore& recovered = r.dep->server(0, 1).store();
  EXPECT_EQ(recovered.image(), r.dep->server(0, 0).store().image());
  EXPECT_EQ(recovered.own_key_count(), r.dep->server(0, 0).store().own_key_count());
}

// Whole-run determinism: two deployments driven by identical seeds produce
// bit-identical end states — the foundation for reproducible experiments.
TEST(Deployment, IdenticalSeedsGiveIdenticalRuns) {
  auto run_once = [] {
    DeploymentSpec spec = spec_for(DeploymentSpec::Kind::kWan1);
    spec.seed = 99;
    Deployment dep(spec);
    for (Key k = 0; k < 100; ++k) dep.load(k, "x");
    for (Key k = 1000; k < 1100; ++k) dep.load(k, "x");
    dep.start();
    Client& c = dep.add_client(0);
    util::Rng rng(5);
    dep.run_until(sim::msec(400));
    for (int i = 0; i < 30; ++i) {
      const Key k1 = rng.below(100);
      const Key k2 = 1000 + rng.below(100);
      c.begin();
      c.read_many({k1, k2}, [&c, k1, k2, i](auto) {
        c.write(k1, "t" + std::to_string(i));
        c.write(k2, "t" + std::to_string(i));
        c.commit([](Outcome) {});
      });
      dep.run_until(dep.simulator().now() + sim::msec(400));
    }
    dep.run_until(dep.simulator().now() + sim::sec(2));
    // Fingerprint: versions and values of every key on every replica plus
    // final virtual time and event count.
    std::string fp = std::to_string(dep.simulator().events_processed());
    for (Server* s : dep.servers()) {
      fp += "|" + std::to_string(s->sc());
      for (Key k : {Key{1}, Key{50}, Key{1001}, Key{1050}}) {
        auto v = s->store().get_latest(k);
        if (v) fp += "," + std::to_string(v->version) + ":" + v->value;
      }
    }
    return fp;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Every counter struct is a run of uint64_t slots in list order
// (NetworkStats keeps its two per-type arrays after them). A counter
// declared outside its SDUR_COUNTERS list would be a slot that `+=` never
// sums and `for_each` never names: it reads zero end to end.
template <class S>
constexpr std::size_t counter_slots() {
  if constexpr (std::is_same_v<S, sim::NetworkStats>) {
    static_assert(sizeof(S) == offsetof(S, per_type_count) + 2 * sizeof(sim::PerTypeCounters),
                  "NetworkStats: counters after the per-type arrays");
    return offsetof(S, per_type_count) / sizeof(std::uint64_t);
  } else {
    static_assert(sizeof(S) % sizeof(std::uint64_t) == 0, "a counter struct holds uint64_t only");
    return sizeof(S) / sizeof(std::uint64_t);
  }
}

/// An S whose slot i holds i + 1.
template <class S>
S distinct_counters() {
  static_assert(std::is_trivially_copyable_v<S>);
  std::array<std::uint64_t, counter_slots<S>()> distinct{};
  for (std::size_t i = 0; i < distinct.size(); ++i) distinct[i] = i + 1;
  S s;
  std::memcpy(static_cast<void*>(&s), distinct.data(), sizeof distinct);
  return s;
}

template <class S>
void expect_sum_covers_every_slot(const char* what) {
  const S one = distinct_counters<S>();
  S total;
  total += one;
  total += one;
  std::array<std::uint64_t, counter_slots<S>()> summed{};
  std::memcpy(summed.data(), static_cast<const void*>(&total), sizeof summed);
  for (std::size_t i = 0; i < summed.size(); ++i) {
    EXPECT_EQ(summed[i], 2 * (i + 1)) << what << " slot #" << i << " is not summed";
  }
}

template <class S>
void expect_visit_names_every_slot_in_order(const char* what) {
  std::vector<std::string> names;
  std::vector<std::uint64_t> values;
  distinct_counters<S>().for_each([&](const char* name, std::uint64_t v) {
    names.emplace_back(name);
    values.push_back(v);
  });
  EXPECT_EQ(names.size(), counter_slots<S>()) << what;
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(), names.size())
      << what << " names a counter twice";
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], i + 1) << what << " visits " << names[i] << " out of declaration order";
  }
}

TEST(Deployment, StatsSumCoversEveryField) {
  expect_sum_covers_every_slot<Server::Stats>("Server::Stats");
  expect_sum_covers_every_slot<Client::Stats>("Client::Stats");
  expect_sum_covers_every_slot<paxos::PaxosEngine::Stats>("PaxosEngine::Stats");
  expect_sum_covers_every_slot<sim::NetworkStats>("NetworkStats");
  expect_sum_covers_every_slot<sim::FabricCounters>("FabricCounters");
}

TEST(Deployment, StatsVisitNamesEverySlotInOrder) {
  expect_visit_names_every_slot_in_order<Server::Stats>("Server::Stats");
  expect_visit_names_every_slot_in_order<Client::Stats>("Client::Stats");
  expect_visit_names_every_slot_in_order<paxos::PaxosEngine::Stats>("PaxosEngine::Stats");
  expect_visit_names_every_slot_in_order<sim::NetworkStats>("NetworkStats");
  expect_visit_names_every_slot_in_order<sim::FabricCounters>("FabricCounters");
}

}  // namespace
}  // namespace sdur

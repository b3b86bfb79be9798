// Torture test: the whole stack under sustained adversity — message loss,
// repeated crash/recovery of follower replicas, periodic checkpoints with
// log truncation, reordering enabled, contended keyspace — then a full
// one-copy-serializability check and replica-convergence audit.
//
// The first test keeps contacts (partition leaders, replica 0) up and
// crashes followers continuously; commit-request retries + outcome memory
// make every outcome exact under loss. The second crashes a replica that
// is both the first contact of its partition and its Paxos leader, for
// good: retries fail over to the partition's other replicas.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "workload/scenario.h"

namespace sdur::workload {
namespace {

TEST(Torture, LossCrashesCheckpointsAndReorderingStaySerializable) {
  // The torture recipe at full length: more clients, a 10 s window, the
  // churn from 2 s (never replica 0: contacts stay reachable; never a
  // majority of any group), a 40 s drain, and the history recorded.
  Scenario sc = torture_recipe();
  sc.run.clients = 12;
  sc.run.warmup = sim::msec(500);
  sc.run.measure = sim::sec(10);
  sc.faults.churn = {.seed = 7, .from = sim::sec(2), .every = sim::msec(900), .down = sim::msec(600)};
  sc.drain = sim::sec(40);
  sc.history = true;
  const ScenarioResult r = run_scenario(sc);

  ASSERT_GT(r.history_commits, 200u) << "the system made real progress under churn";
  EXPECT_EQ(r.unknown, 0u) << "commit retries + outcome memory give exact answers under loss";
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.agree) << "every replica of a partition holds identical data";
  EXPECT_TRUE(r.serializable) << "serializability violated under churn: " << r.why;
  EXPECT_EQ(r.new_violations, 0u);
}

/// One closed-loop client of CrashedContactAndLeaderNeverRecovers: 20%
/// read-only transactions over both partitions, the rest read and write
/// one home key and, 30% of the time, one remote key.
struct FailoverLoop {
  Client& client;
  PartitionId home;
  util::Rng rng;
  SerializabilityChecker& checker;
  const std::function<bool()>& keep_running;
  bool in_flight = false;
  std::uint64_t committed = 0;
  std::uint64_t unknown = 0;

  static constexpr std::uint64_t kItems = 60;
  Key key_in(PartitionId p) { return p * kItems + rng.below(kItems); }

  void finish(Outcome o) {
    in_flight = false;
    if (o == Outcome::kCommit) ++committed;
    if (o == Outcome::kUnknown) ++unknown;
    next();
  }

  void next() {
    if (!keep_running()) return;
    in_flight = true;
    if (rng.chance(0.2)) {
      client.begin_read_only([this] {
        client.read_many({key_in(0), key_in(1)}, [this](auto) {
          client.commit([this](Outcome o) { finish(o); });
        });
      });
      return;
    }
    client.begin();
    std::vector<Key> keys{key_in(home)};
    if (rng.chance(0.3)) keys.push_back(key_in(1 - home));
    const TxId id = client.current_txid();
    client.read_many(keys, [this, keys, id](std::vector<std::optional<std::string>> values) {
      std::vector<std::pair<Key, TxId>> reads;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        reads.emplace_back(keys[i], values[i] ? MicroWorkload::decode_writer(*values[i]) : 0);
        client.write(keys[i], MicroWorkload::encode_value(id, 8));
      }
      client.commit([this, keys, id, reads = std::move(reads)](Outcome o) mutable {
        if (o == Outcome::kCommit) checker.add_committed(id, std::move(reads), keys);
        finish(o);
      });
    });
  }
};

TEST(Torture, CrashedContactAndLeaderNeverRecovers) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = MicroWorkload::make_partitioning(2, FailoverLoop::kItems);
  spec.paxos.log_write_latency = sim::usec(300);
  spec.server.checkpoint_interval = sim::msec(600);
  spec.server.missing_vote_timeout = sim::msec(1500);
  // A commit still unanswered 10 s after its request reports kUnknown.
  spec.client.commit_timeout = sim::sec(10);
  spec.seed = 43;
  Deployment dep(spec);
  for (Key k = 0; k < 2 * FailoverLoop::kItems; ++k) dep.load(k, MicroWorkload::encode_value(0, 8));
  dep.start();
  dep.network().set_loss_rate(0.02);
  dep.run_until(sim::msec(500));

  const sim::Time stop_at = sim::sec(5);
  const std::function<bool()> keep_running = [&dep, stop_at] {
    return dep.simulator().now() < stop_at;
  };
  SerializabilityChecker checker;
  std::vector<std::unique_ptr<FailoverLoop>> loops;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const PartitionId home = i % 2;
    loops.push_back(std::make_unique<FailoverLoop>(
        FailoverLoop{dep.add_client(home), home, util::Rng(100 + i), checker, keep_running}));
  }
  for (auto& l : loops) l->next();

  // Replica 0 of partition 0 leads its group and is the first replica of
  // every client's partition-0 list (all replicas share one region).
  Server& victim = dep.server(0, 0);
  dep.run_until(sim::sec(2));
  ASSERT_TRUE(victim.engine().is_leader());
  std::vector<std::uint64_t> committed_before;
  for (const auto& l : loops) committed_before.push_back(l->committed);
  victim.crash();
  dep.run_until(stop_at);
  dep.network().set_loss_rate(0);
  dep.run_until(stop_at + sim::sec(15));  // past every commit timeout

  std::uint64_t retries = 0;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const FailoverLoop* l = loops[i].get();
    EXPECT_FALSE(l->in_flight) << l->client.name() << " finished its last transaction";
    EXPECT_EQ(l->unknown, 0u) << l->client.name();
    EXPECT_GT(l->committed, committed_before[i])
        << l->client.name() << " committed after the crash";
    retries += l->client.stats().commit_retries + l->client.stats().read_retries;
  }
  EXPECT_GT(retries, 0u) << "clients failed over";
  EXPECT_TRUE(dep.server(0, 1).engine().is_leader() || dep.server(0, 2).engine().is_leader());

  // The live replicas are drained and converge: votes for globals whose part
  // never reached this partition left no round behind (their clients'
  // later transactions raised the floor). The MVSG over their key orders
  // is acyclic.
  EXPECT_TRUE(drained(dep));
  EXPECT_TRUE(replicas_agree(dep));
  read_key_orders(dep, checker);
  std::string why;
  EXPECT_TRUE(checker.check(&why)) << "serializability violated after failover: " << why;
  EXPECT_EQ(audit_violations(), 0u);
}

}  // namespace
}  // namespace sdur::workload

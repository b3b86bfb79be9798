// Torture test: the whole stack under sustained adversity — message loss,
// repeated crash/recovery of follower replicas, periodic checkpoints with
// log truncation, reordering enabled, contended keyspace — then a full
// one-copy-serializability check and replica-convergence audit.
//
// Contacts (partition leaders, replica 0) stay up so every client
// eventually learns its outcome (commit-request retries + outcome memory
// make that exact under loss); followers crash and recover continuously.
#include <gtest/gtest.h>

#include "workload/driver.h"
#include "workload/history.h"
#include "workload/microbench.h"

namespace sdur::workload {
namespace {

TEST(Torture, LossCrashesCheckpointsAndReorderingStaySerializable) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = MicroWorkload::make_partitioning(2, 60);
  spec.log_write_latency = sim::usec(300);
  spec.server.techniques.reorder_threshold = 48;
  spec.server.checkpoint_interval = sim::msec(600);
  spec.server.missing_vote_timeout = sim::msec(1500);
  spec.seed = 31;
  // Aggressive client retries: loss is frequent here, and retry latency
  // dominates progress otherwise.
  spec.client.read_retry_interval = sim::msec(300);
  spec.client.commit_retry_interval = sim::msec(800);
  Deployment dep(spec);
  dep.network().set_loss_rate(0.03);

  SerializabilityChecker checker;
  RunConfig cfg;
  cfg.clients = 12;
  cfg.seed = 31;
  cfg.warmup = sim::msec(500);
  cfg.measure = sim::sec(10);
  const sim::Time stop_at = cfg.settle + cfg.warmup + cfg.measure;

  MicroConfig mc;
  mc.items_per_partition = 60;
  mc.global_fraction = 0.3;
  mc.commit_hook = [&](TxId id, std::vector<std::pair<Key, TxId>> reads, std::vector<Key> writes) {
    checker.add_committed(id, std::move(reads), std::move(writes));
  };
  mc.keep_running = [&dep, stop_at] { return dep.simulator().now() < stop_at; };
  MicroWorkload wl(mc);

  // Crash/recover follower replicas on a rolling schedule (never replica 0:
  // contacts stay reachable; never a majority of any group).
  util::Rng chaos(7);
  for (sim::Time t = sim::sec(2); t < stop_at; t += sim::msec(900)) {
    const PartitionId p = static_cast<PartitionId>(chaos.below(2));
    const std::uint32_t replica = 1 + static_cast<std::uint32_t>(chaos.below(2));
    dep.simulator().schedule_at(t, [&dep, p, replica] { dep.server(p, replica).crash(); });
    dep.simulator().schedule_at(t + sim::msec(600),
                                [&dep, p, replica] { dep.server(p, replica).recover(); });
  }

  const RunResult r = run_experiment(dep, wl, cfg);

  // Quiesce: heal the network and drain everything.
  dep.network().set_loss_rate(0);
  for (Server* s : dep.servers()) s->recover();  // no-op if alive
  dep.run_until(dep.simulator().now() + sim::sec(40));

  ASSERT_GT(checker.committed_count(), 200u) << "the system made real progress under churn";
  std::uint64_t unknown = 0;
  for (const auto& [cls, st] : r.classes) unknown += st.unknown;
  EXPECT_EQ(unknown, 0u) << "commit retries + outcome memory give exact answers under loss";

  for (Server* s : dep.servers()) {
    ASSERT_EQ(s->pending_count(), 0u) << s->name();
  }

  // Convergence: every replica of a partition holds identical data.
  for (PartitionId p = 0; p < 2; ++p) {
    Server& ref = dep.server(p, 0);
    for (std::uint32_t rep = 1; rep < 3; ++rep) {
      Server& other = dep.server(p, rep);
      ASSERT_EQ(ref.sc(), other.sc()) << "partition " << p << " replica " << rep;
    }
    for (Key k : ref.store().keys()) {
      const auto* versions = ref.store().versions_of(k);
      std::vector<TxId> order;
      for (const auto& vv : *versions) {
        if (vv.version == 0) continue;
        order.push_back(MicroWorkload::decode_writer(vv.value));
      }
      checker.set_key_order(k, order);
      for (std::uint32_t rep = 1; rep < 3; ++rep) {
        auto a = ref.store().get_latest(k);
        auto b = dep.server(p, rep).store().get_latest(k);
        ASSERT_TRUE(b.has_value()) << "key " << k;
        ASSERT_EQ(a->value, b->value) << "partition " << p << " key " << k << " replica " << rep;
        ASSERT_EQ(a->version, b->version);
      }
    }
  }

  std::string why;
  EXPECT_TRUE(checker.check(&why)) << "serializability violated under churn: " << why;
}

}  // namespace
}  // namespace sdur::workload

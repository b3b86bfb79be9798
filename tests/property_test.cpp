// Property-based tests: one-copy serializability and replica determinism
// over randomized contended workloads, swept across deployments, global
// mixes, reorder thresholds, bloom certification and delaying.
//
// Every committed transaction's reads (which writer's version it saw) and
// writes are recorded; after the run the per-key version order is read
// back from a replica's multiversion store and the multiversion
// serialization graph is checked for cycles (see workload/history.h).
//
// The same histories also cross-validate the two independent correctness
// oracles against each other: the *online* invariant audit (src/audit/,
// hooks firing inside the protocol as it runs) and this *offline* MVSG
// check must both pass on every healthy run. They catch overlapping but
// distinct failure modes, so a sweep where one trips and the other stays
// green localizes a bug to either the protocol or the checker itself.
#include <gtest/gtest.h>

#include "audit/audit.h"
#include "workload/driver.h"
#include "workload/history.h"
#include "workload/microbench.h"

namespace sdur::workload {
namespace {

struct PropertyCase {
  const char* name;
  DeploymentSpec::Kind kind = DeploymentSpec::Kind::kLan;
  PartitionId partitions = 2;
  double global_fraction = 0.2;
  std::uint32_t reorder_threshold = 0;
  bool bloom = false;
  bool delaying = false;
  std::uint64_t items = 40;  // tiny keyspace -> heavy contention
  std::uint32_t clients = 16;
  std::uint64_t seed = 7;
};

std::ostream& operator<<(std::ostream& os, const PropertyCase& c) { return os << c.name; }

class SerializabilityProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SerializabilityProperty, HistoryIsSerializableAndReplicasAgree) {
  const PropertyCase& pc = GetParam();

  DeploymentSpec spec;
  spec.kind = pc.kind;
  spec.partitions = pc.partitions;
  spec.partitioning = MicroWorkload::make_partitioning(pc.partitions, pc.items);
  spec.server.techniques.reorder_threshold = pc.reorder_threshold;
  spec.server.techniques.bloom_readsets = pc.bloom;
  spec.server.techniques.delaying_enabled = pc.delaying;
  spec.log_write_latency = sim::usec(300);
  spec.seed = pc.seed;
  Deployment dep(spec);

  SerializabilityChecker checker;
  RunConfig cfg;
  cfg.clients = pc.clients;
  cfg.seed = pc.seed;
  cfg.settle = pc.kind == DeploymentSpec::Kind::kLan ? sim::msec(800) : sim::msec(1500);
  cfg.warmup = sim::msec(500);
  cfg.measure = sim::sec(6);
  const sim::Time stop_at = cfg.settle + cfg.warmup + cfg.measure;

  MicroConfig mc;
  mc.items_per_partition = pc.items;
  mc.global_fraction = pc.global_fraction;
  mc.commit_hook = [&](TxId id, std::vector<std::pair<Key, TxId>> reads, std::vector<Key> writes) {
    checker.add_committed(id, std::move(reads), std::move(writes));
  };
  mc.keep_running = [&dep, stop_at] { return dep.simulator().now() < stop_at; };
  MicroWorkload wl(mc);

  const RunResult r = run_experiment(dep, wl, cfg);

  // Quiesce: no new transactions start; drain everything in flight.
  dep.run_until(dep.simulator().now() + sim::sec(20));
  for (Server* s : dep.servers()) {
    ASSERT_EQ(s->pending_count(), 0u) << s->name() << " still has pending transactions";
  }

  // Sanity: the run did real, contended work.
  ASSERT_GT(checker.committed_count(), 50u) << "workload barely ran";
  std::uint64_t aborted = 0;
  for (const auto& [cls, st] : r.classes) aborted += st.aborted;
  if (pc.items <= 50) {
    EXPECT_GT(aborted, 0u) << "tiny keyspace should produce certification aborts";
  }

  // Recover the per-key version order from replica 0 of each partition and
  // cross-check every other replica against it (determinism).
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    Server& ref = dep.server(p, 0);
    for (Key k : ref.store().keys()) {
      const auto* versions = ref.store().versions_of(k);
      ASSERT_NE(versions, nullptr);
      std::vector<TxId> order;
      for (const auto& vv : *versions) {
        if (vv.version == 0) continue;  // initial load
        order.push_back(MicroWorkload::decode_writer(vv.value));
      }
      checker.set_key_order(k, order);

      for (std::uint32_t rep = 1; rep < dep.replica_count(); ++rep) {
        const auto* other = dep.server(p, rep).store().versions_of(k);
        ASSERT_NE(other, nullptr) << "key " << k;
        ASSERT_EQ(versions->size(), other->size()) << "key " << k << " replica " << rep;
        for (std::size_t i = 0; i < versions->size(); ++i) {
          ASSERT_EQ((*versions)[i].version, (*other)[i].version);
          ASSERT_EQ((*versions)[i].value, (*other)[i].value);
        }
      }
    }
  }

  std::string why;
  EXPECT_TRUE(checker.check(&why)) << "serializability violated: " << why;

#if SDUR_AUDIT_ON
  // The online audit watched the same run the MVSG checker just validated;
  // both oracles must agree the history is healthy.
  EXPECT_TRUE(audit::Auditor::instance().clean())
      << "online audit disagrees with offline MVSG check:\n"
      << audit::Auditor::instance().summary();
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerializabilityProperty,
    ::testing::Values(
        PropertyCase{.name = "lan_baseline"},
        PropertyCase{.name = "lan_single_partition", .partitions = 1, .global_fraction = 0},
        PropertyCase{.name = "lan_heavy_global", .global_fraction = 0.6},
        PropertyCase{.name = "lan_reorder", .reorder_threshold = 64},
        PropertyCase{.name = "lan_reorder_heavy_global",
                     .global_fraction = 0.5,
                     .reorder_threshold = 128,
                     .seed = 11},
        PropertyCase{.name = "lan_bloom", .bloom = true, .seed = 13},
        PropertyCase{.name = "lan_four_partitions",
                     .partitions = 4,
                     .global_fraction = 0.3,
                     .clients = 24,
                     .seed = 17},
        PropertyCase{.name = "wan1_baseline",
                     .kind = DeploymentSpec::Kind::kWan1,
                     .items = 60,
                     .seed = 19},
        PropertyCase{.name = "wan1_reorder_delaying",
                     .kind = DeploymentSpec::Kind::kWan1,
                     .reorder_threshold = 160,
                     .delaying = true,
                     .items = 60,
                     .seed = 23},
        PropertyCase{.name = "wan2_reorder",
                     .kind = DeploymentSpec::Kind::kWan2,
                     .reorder_threshold = 40,
                     .items = 60,
                     .seed = 29}),
    [](const ::testing::TestParamInfo<PropertyCase>& param_info) { return param_info.param.name; });

}  // namespace
}  // namespace sdur::workload

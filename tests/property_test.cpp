// Property-based tests: one-copy serializability and replica determinism
// over randomized contended workloads, swept across deployments, global
// mixes, reorder thresholds, bloom certification and delaying, and every
// technique at once on serial and P-DUR replicas.
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

#include "sdur/technique_config.h"
#include "workload/scenario.h"

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
  /// Every technique at once (the `all-on` preset) instead of the three
  /// fields above.
  bool all_on = false;
  /// Speculation leaves a serial replica's pending list empty after every
  /// drain (DESIGN.md "Completion"): expect globals speculated and no
  /// local reordered, bypassed or parked.
  bool spec_empties_pending = false;
  std::uint32_t cores = 1;
  std::uint64_t items = 40;  // tiny keyspace -> heavy contention
  std::uint32_t clients = 16;
  std::uint64_t seed = 7;
};

std::ostream& operator<<(std::ostream& os, const PropertyCase& c) { return os << c.name; }

class SerializabilityProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SerializabilityProperty, HistoryIsSerializableAndReplicasAgree) {
  const PropertyCase& pc = GetParam();

  Scenario sc;
  sc.spec.kind = pc.kind;
  sc.spec.partitions = pc.partitions;
  if (pc.all_on) {
    sc.spec.server.techniques = *TechniqueConfig::preset("all-on");
  } else {
    sc.spec.server.techniques.reorder_threshold = pc.reorder_threshold;
    sc.spec.server.techniques.bloom_readsets = pc.bloom;
    sc.spec.server.techniques.delaying_enabled = pc.delaying;
  }
  sc.spec.server.pdur.cores = pc.cores;
  sc.spec.paxos.log_write_latency = sim::usec(300);
  sc.spec.seed = pc.seed;
  sc.run = {.clients = pc.clients,
            .settle = pc.kind == DeploymentSpec::Kind::kLan ? sim::msec(800) : sim::msec(1500),
            .warmup = sim::msec(500),
            .measure = sim::sec(6),
            .seed = pc.seed};
  sc.micro = {.items_per_partition = pc.items, .global_fraction = pc.global_fraction};
  sc.drain = sim::sec(20);  // no new transactions start; everything in flight ends
  sc.history = true;
  const ScenarioResult r = run_scenario(sc);

  ASSERT_TRUE(r.drained) << "a replica still has pending transactions";
  // Sanity: the run did real, contended work.
  ASSERT_GT(r.history_commits, 50u) << "workload barely ran";
  if (pc.items <= 50) {
    EXPECT_GT(r.aborted, 0u) << "tiny keyspace should produce certification aborts";
  }
  // Determinism: every replica of a partition holds the same version
  // chains as replica 0, from which the MVSG's key orders were read.
  EXPECT_TRUE(r.agree);
  EXPECT_TRUE(r.serializable) << "serializability violated: " << r.why;
  // The online audit watched the same run the MVSG checker just validated;
  // both oracles must agree the history is healthy.
  EXPECT_EQ(r.new_violations, 0u) << "online audit disagrees with offline MVSG check";
  if (pc.spec_empties_pending) {
    const Server::Stats st = r.dep->total_stats();
    EXPECT_GT(st.speculated_globals, 0u);
    EXPECT_EQ(st.reordered, 0u);
    EXPECT_EQ(st.bypassed_locals, 0u);
    EXPECT_EQ(st.parked_locals, 0u);
  }
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
                     .seed = 29},
        PropertyCase{
            .name = "lan_all_on", .all_on = true, .spec_empties_pending = true, .seed = 31},
        PropertyCase{.name = "wan1_all_on",
                     .kind = DeploymentSpec::Kind::kWan1,
                     .all_on = true,
                     .spec_empties_pending = true,
                     .items = 60,
                     .seed = 37},
        PropertyCase{.name = "lan_all_on_four_cores", .all_on = true, .cores = 4, .seed = 41}),
    [](const ::testing::TestParamInfo<PropertyCase>& param_info) { return param_info.param.name; });

}  // namespace
}  // namespace sdur::workload

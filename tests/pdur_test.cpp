// P-DUR multi-core replica tests (src/pdur/, arXiv:1312.0742):
//
//  - the intra-replica sub-partitioner;
//  - the multi-core sim::Process cost model (per-core serial queues,
//    cross-core barrier);
//  - the central equivalence property: on the same seeded delivery
//    history, the parallel certifier commits/aborts *exactly* what the
//    serial certifier does (same outcome, position, version), for exact
//    and bloom readsets alike — P-DUR changes where time is spent, never
//    what is decided;
//  - a checkpoint round-trip keeps a multi-core certifier's decisions;
//  - end-to-end: a multi-core deployment stays deterministic across
//    repeat runs, keeps replicas byte-identical, and the online audit
//    stays clean.
#include <gtest/gtest.h>

#include <algorithm>

#include "audit/audit.h"
#include "audit/auditor.h"
#include "pdur/core_partitioner.h"
#include "sdur/certifier.h"
#include "sdur/deployment.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "util/bloom.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace sdur {
namespace {

// --- CorePartitioner ----------------------------------------------------------

TEST(CorePartitioner, EveryKeyHasExactlyOneHomeCore) {
  pdur::CorePartitioner part(4);
  for (Key k = 0; k < 1000; ++k) {
    const pdur::CoreId c = part.core_of(k);
    EXPECT_LT(c, 4u);
    EXPECT_EQ(c, part.core_of(k));  // stable
  }
}

TEST(CorePartitioner, SpreadIsRoughlyUniform) {
  pdur::CorePartitioner part(8);
  std::vector<std::size_t> counts(8, 0);
  for (Key k = 0; k < 80'000; ++k) ++counts[part.core_of(k)];
  for (std::size_t c : counts) {
    EXPECT_GT(c, 80'000 / 8 / 2);  // no core owns less than half its share
  }
}

TEST(CorePartitioner, HomeCoresUnionOfExactKeys) {
  pdur::CorePartitioner part(4);
  const Key a = 1, b = 2;
  const auto rs = util::KeySet::exact({a});
  const auto ws = util::KeySet::exact({b});
  const auto cores = part.home_cores(rs, ws);
  std::vector<pdur::CoreId> expected{part.core_of(a), part.core_of(b)};
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
  EXPECT_EQ(cores, expected);
}

TEST(CorePartitioner, BloomReadsetHomesOnAllCores) {
  pdur::CorePartitioner part(4);
  const auto rs = util::KeySet::bloom({1, 2, 3}, 1e-4);
  const auto ws = util::KeySet::exact({7});
  EXPECT_EQ(part.home_cores(rs, ws).size(), 4u);
}

TEST(CorePartitioner, EmptySetsHomeOnCoreZero) {
  pdur::CorePartitioner part(4);
  const auto cores = part.home_cores(util::KeySet::exact({}), util::KeySet::exact({}));
  EXPECT_EQ(cores, std::vector<pdur::CoreId>{0});
}

// --- Multi-core process cost model --------------------------------------------

class CoreProbe : public sim::Process {
 public:
  CoreProbe(sim::Network& net, std::uint32_t cores)
      : sim::Process(net, 1, "probe", {sim::kEU, 0}) {
    set_core_count(cores);
  }
  using sim::Process::enqueue_work_multi;
  using sim::Process::enqueue_work_on;

 protected:
  void on_message(const sim::Message&, sim::ProcessId) override {}
};

struct ProcFixture {
  sim::Simulator sim;
  sim::Topology topo = sim::Topology::ec2_three_regions();
  std::unique_ptr<sim::Network> net;
  ProcFixture() {
    topo.set_jitter(0);
    net = std::make_unique<sim::Network>(sim, topo, 1);
  }
};

TEST(MultiCoreProcess, DistinctCoresRunConcurrently) {
  ProcFixture f;
  CoreProbe p(*f.net, 2);
  sim::Time done0 = 0, done1 = 0;
  p.enqueue_work_on(0, sim::usec(100), [&] { done0 = f.sim.now(); });
  p.enqueue_work_on(1, sim::usec(100), [&] { done1 = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(done0, sim::usec(100));
  EXPECT_EQ(done1, sim::usec(100));  // in parallel, not 200us
}

TEST(MultiCoreProcess, SameCoreSerializes) {
  ProcFixture f;
  CoreProbe p(*f.net, 2);
  sim::Time first = 0, second = 0;
  p.enqueue_work_on(0, sim::usec(100), [&] { first = f.sim.now(); });
  p.enqueue_work_on(0, sim::usec(100), [&] { second = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(first, sim::usec(100));
  EXPECT_EQ(second, sim::usec(200));
}

TEST(MultiCoreProcess, CrossCoreBarrierWaitsForBusiestCore) {
  ProcFixture f;
  CoreProbe p(*f.net, 2);
  sim::Time done = 0;
  p.enqueue_work_on(0, sim::usec(100), [] {});
  // The barrier starts when every involved core is free (core 0 at 100us)
  // and occupies them all for the work's duration.
  p.enqueue_work_multi({0, 1}, sim::usec(50), [&] { done = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(done, sim::usec(150));
  EXPECT_EQ(p.core_free_at(0), sim::usec(150));
  EXPECT_EQ(p.core_free_at(1), sim::usec(150));
}

TEST(MultiCoreProcess, SingleCoreLegacyPathUnchanged) {
  ProcFixture f;
  CoreProbe p(*f.net, 1);
  sim::Time done = 0;
  p.enqueue_work(sim::usec(42), [&] { done = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(done, sim::usec(42));
  EXPECT_EQ(p.core_count(), 1u);
}

// --- Parallel/serial certification equivalence --------------------------------

PartTx random_tx(util::Rng& rng, TxId id, std::uint64_t keyspace, bool bloom,
                 Version max_snapshot) {
  PartTx t;
  t.kind = PartTx::Kind::kTxn;
  t.id = id;
  t.involved = rng.chance(0.3) ? std::vector<PartitionId>{0, 1} : std::vector<PartitionId>{0};
  t.snapshot = max_snapshot == 0 ? 0 : static_cast<Version>(rng.below(
                                           static_cast<std::uint64_t>(max_snapshot) + 1));
  std::vector<Key> rs, ws;
  const std::size_t nr = 1 + rng.below(3);
  for (std::size_t i = 0; i < nr; ++i) rs.push_back(rng.below(keyspace));
  std::sort(rs.begin(), rs.end());
  rs.erase(std::unique(rs.begin(), rs.end()), rs.end());
  const std::size_t nw = rng.below(3);
  for (std::size_t i = 0; i < nw; ++i) ws.push_back(rng.below(keyspace));
  std::sort(ws.begin(), ws.end());
  ws.erase(std::unique(ws.begin(), ws.end()), ws.end());
  t.readset = bloom ? util::KeySet::bloom(rs, 1e-4) : util::KeySet::exact(rs);
  t.write_keys = util::KeySet::exact(ws);
  for (Key k : ws) t.writes.push_back(WriteOp{k, "v"});
  return t;
}

/// Feeds the same seeded history of contended transactions to a serial
/// certifier and a K-core parallel certifier, resolving entries in
/// lock-step, and demands byte-equal decisions throughout.
void run_equivalence(std::uint32_t cores, bool bloom, std::uint64_t seed) {
  const std::uint64_t violations_before = audit::Auditor::instance().total_violations();
  Certifier serial(64);
  Certifier par(64, cores);
  util::Rng rng(seed);
  std::uint64_t dc = 0;
  for (TxId id = 1; id <= 600; ++id) {
    // Two independent certifiers must see the identical transaction: fork
    // the generator once and give each the same stream.
    const PartTx t = random_tx(rng, id, /*keyspace=*/24, bloom, serial.certified());
    ++dc;
    const std::uint64_t rt = dc + (t.is_global() ? 8 : 0);
    const Certifier::Result rs = serial.process(t, rt, dc);
    const Certifier::Result rp = par.process(t, rt, dc);
    ASSERT_EQ(rs.outcome, rp.outcome) << "tx " << id;
    ASSERT_EQ(rs.position, rp.position) << "tx " << id;
    ASSERT_EQ(rs.version, rp.version) << "tx " << id;
    ASSERT_EQ(rs.stale_snapshot, rp.stale_snapshot) << "tx " << id;
    if (rp.outcome == Outcome::kCommit) {
      ASSERT_FALSE(rp.cores.empty()) << "tx " << id;
      for (pdur::CoreId c : rp.cores) ASSERT_LT(c, cores);
    }
    // Randomly resolve some pending prefix (same choices on both sides).
    while (!serial.empty() && rng.chance(0.4)) {
      const bool committed = rng.chance(0.8);
      serial.resolve(serial.pop_head(), committed);
      par.resolve(par.pop_head(), committed);
    }
    ASSERT_EQ(serial.certified(), par.certified());
    ASSERT_EQ(serial.stable(), par.stable());
  }
  // The in-place index-vs-scan audit cross-check ran on every delivery
  // above; it must not have tripped.
  EXPECT_EQ(audit::Auditor::instance().total_violations(), violations_before);
}

TEST(ParallelCertification, MatchesSerialExactReadsets2Cores) { run_equivalence(2, false, 101); }
TEST(ParallelCertification, MatchesSerialExactReadsets4Cores) { run_equivalence(4, false, 102); }
TEST(ParallelCertification, MatchesSerialExactReadsets8Cores) { run_equivalence(8, false, 103); }
TEST(ParallelCertification, MatchesSerialBloomReadsets4Cores) { run_equivalence(4, true, 104); }

TEST(ParallelCertification, InstallRebuildsPerCoreWindows) {
  Certifier a(64, 4);
  util::Rng rng(7);
  std::uint64_t dc = 0;
  for (TxId id = 1; id <= 80; ++id) {
    const PartTx t = random_tx(rng, id, 24, false, a.certified());
    ++dc;
    a.process(t, dc, dc);
    while (!a.empty() && rng.chance(0.5)) a.resolve(a.pop_head(), rng.chance(0.8));
  }
  util::Writer w;
  a.encode(w);
  const util::Bytes blob = std::move(w).take();

  Certifier b(64, 4);
  util::Reader r(blob);
  b.install(r);
  ASSERT_EQ(a.certified(), b.certified());
  ASSERT_EQ(a.stable(), b.stable());

  // Continue the identical history on both; the installed certifier must
  // keep producing the decisions of the original.
  for (TxId id = 81; id <= 200; ++id) {
    const PartTx t = random_tx(rng, id, 24, false, a.certified());
    ++dc;
    const auto ra = a.process(t, dc, dc);
    const auto rb = b.process(t, dc, dc);
    ASSERT_EQ(ra.outcome, rb.outcome) << "tx " << id;
    ASSERT_EQ(ra.version, rb.version) << "tx " << id;
    while (!a.empty() && rng.chance(0.4)) {
      const bool committed = rng.chance(0.8);
      a.resolve(a.pop_head(), committed);
      b.resolve(b.pop_head(), committed);
    }
  }
}

// --- End-to-end multi-core deployment -----------------------------------------

workload::RunResult run_pdur_deployment(std::uint32_t cores, double cross_fraction,
                                        std::uint64_t seed) {
  workload::Scenario sc;
  sc.spec.kind = DeploymentSpec::Kind::kLan;
  sc.spec.partitions = 1;
  sc.spec.server.pdur.cores = cores;
  sc.spec.seed = seed;
  sc.run = {.clients = 24, .warmup = sim::msec(300), .measure = sim::sec(2), .seed = seed};
  sc.micro = {.items_per_partition = 2'000, .cross_core_fraction = cross_fraction};
  sc.drain = sim::sec(10);
  const workload::ScenarioResult r = workload::run_scenario(sc);

  // Quiesced, the partition's replicas converged byte-identically.
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.agree);
  EXPECT_EQ(r.new_violations, 0u);
  return r.run;
}

TEST(PdurDeployment, MultiCoreReplicaCommitsAndStaysClean) {
  const auto r = run_pdur_deployment(4, 0.3, 21);
  const std::uint64_t committed = r.servers.committed_local + r.servers.committed_global;
  EXPECT_GT(committed, 200u) << "workload barely ran";
  EXPECT_GT(r.servers.pdur_single_core, 0u);
  EXPECT_GT(r.servers.pdur_cross_core, 0u);  // cross_fraction = 0.3 must show up
}

TEST(PdurDeployment, RepeatRunsAreBitIdentical) {
  const auto a = run_pdur_deployment(4, 0.2, 33);
  const auto b = run_pdur_deployment(4, 0.2, 33);
  EXPECT_EQ(a.servers.delivered, b.servers.delivered);
  EXPECT_EQ(a.servers.committed_local, b.servers.committed_local);
  EXPECT_EQ(a.servers.committed_global, b.servers.committed_global);
  EXPECT_EQ(a.servers.aborted, b.servers.aborted);
  EXPECT_EQ(a.servers.pdur_single_core, b.servers.pdur_single_core);
  EXPECT_EQ(a.servers.pdur_cross_core, b.servers.pdur_cross_core);
  EXPECT_EQ(a.servers.reads_served, b.servers.reads_served);
}

TEST(PdurDeployment, SingleCoreConfigMatchesLegacyModel) {
  // cores = 1 must take the exact legacy path: the parallel machinery is
  // never constructed and per-delivery costs match the serial replica.
  workload::Scenario sc;
  sc.spec.partitions = 1;
  sc.spec.seed = 5;
  sc.run = {.clients = 8, .warmup = sim::msec(200), .measure = sim::sec(1), .seed = 5};
  sc.micro.items_per_partition = 1000;
  const workload::RunResult ra = workload::run_scenario(sc).run;
  sc.spec.server.pdur.cores = 1;  // explicit 1 == default
  const workload::RunResult rb = workload::run_scenario(sc).run;
  EXPECT_EQ(ra.servers.delivered, rb.servers.delivered);
  EXPECT_EQ(ra.servers.committed_local, rb.servers.committed_local);
  EXPECT_EQ(ra.servers.pdur_single_core, 0u);
  EXPECT_EQ(rb.servers.pdur_single_core, 0u);
}

}  // namespace
}  // namespace sdur

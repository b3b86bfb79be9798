// Integration tests: full workloads through the driver on LAN and WAN
// deployments — throughput sanity, replica convergence, workload classes.
#include <gtest/gtest.h>

#include "workload/driver.h"
#include "workload/microbench.h"
#include "workload/social.h"

namespace sdur::workload {
namespace {

std::unique_ptr<Deployment> make_micro_dep(DeploymentSpec::Kind kind, PartitionId partitions,
                                           std::uint64_t items,
                                           std::function<void(DeploymentSpec&)> tweak = {}) {
  DeploymentSpec spec;
  spec.kind = kind;
  spec.partitions = partitions;
  spec.partitioning = MicroWorkload::make_partitioning(partitions, items);
  spec.log_write_latency = sim::usec(300);
  if (tweak) tweak(spec);
  return std::make_unique<Deployment>(spec);
}

void assert_converged(Deployment& dep) {
  dep.run_until(dep.simulator().now() + sim::sec(5));
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    Server& ref = dep.server(p, 0);
    for (std::uint32_t r = 1; r < dep.replica_count(); ++r) {
      Server& other = dep.server(p, r);
      ASSERT_EQ(ref.sc(), other.sc()) << "partition " << p << " replica " << r;
      for (Key k : ref.store().keys()) {
        auto a = ref.store().get_latest(k);
        auto b = other.store().get_latest(k);
        ASSERT_TRUE(b.has_value());
        ASSERT_EQ(a->value, b->value) << "partition " << p << " key " << k;
      }
    }
  }
}

TEST(Integration, MicrobenchLanCommitsAndConverges) {
  MicroConfig mc;
  mc.items_per_partition = 2'000;
  mc.global_fraction = 0.1;
  auto dep = make_micro_dep(DeploymentSpec::Kind::kLan, 2, mc.items_per_partition);

  RunConfig cfg;
  cfg.clients = 16;
  cfg.warmup = sim::sec(1);
  cfg.measure = sim::sec(4);
  const sim::Time stop_at = cfg.settle + cfg.warmup + cfg.measure;
  mc.keep_running = [dep = dep.get(), stop_at] { return dep->simulator().now() < stop_at; };
  MicroWorkload wl(mc);
  const RunResult r = run_experiment(*dep, wl, cfg);

  EXPECT_GT(r.throughput("local"), 100.0);
  EXPECT_GT(r.throughput("global"), 5.0);
  const auto& local = r.classes.at("local");
  EXPECT_GT(local.committed, 100u);
  EXPECT_LT(local.aborted, local.committed / 10) << "low contention, few aborts";
  EXPECT_GT(r.p99("global"), r.p99("local") / 2) << "globals are not cheaper than locals";
  assert_converged(*dep);
}

TEST(Integration, MicrobenchLatencyOrderingWan1) {
  MicroConfig mc;
  mc.items_per_partition = 5'000;
  mc.global_fraction = 0.2;
  auto dep = make_micro_dep(DeploymentSpec::Kind::kWan1, 2, mc.items_per_partition);

  RunConfig cfg;
  cfg.clients = 8;
  cfg.settle = sim::msec(1500);
  cfg.warmup = sim::sec(1);
  cfg.measure = sim::sec(6);
  const sim::Time stop_at = cfg.settle + cfg.warmup + cfg.measure;
  mc.keep_running = [dep = dep.get(), stop_at] { return dep->simulator().now() < stop_at; };
  MicroWorkload wl(mc);
  const RunResult r = run_experiment(*dep, wl, cfg);

  ASSERT_GT(r.classes.at("local").committed, 50u);
  ASSERT_GT(r.classes.at("global").committed, 10u);
  // WAN 1: locals terminate intra-region (~4 delta), globals pay inter-
  // region vote exchange (~4 delta + 2 Delta >= 90ms extra).
  EXPECT_LT(r.mean("local"), r.mean("global"));
  EXPECT_GT(r.mean("global"), 90'000) << "global mean should include ~2*Delta";
  assert_converged(*dep);
}

TEST(Integration, MicrobenchWan2LocalsPayInterRegionQuorum) {
  MicroConfig mc;
  mc.items_per_partition = 5'000;
  mc.global_fraction = 0.0;
  MicroWorkload wl(mc);
  auto dep = make_micro_dep(DeploymentSpec::Kind::kWan2, 2, mc.items_per_partition);

  RunConfig cfg;
  cfg.clients = 8;
  cfg.settle = sim::msec(1500);
  cfg.warmup = sim::sec(1);
  cfg.measure = sim::sec(6);
  const RunResult r = run_experiment(*dep, wl, cfg);

  ASSERT_GT(r.classes.at("local").committed, 20u);
  // WAN 2 locals need an inter-region Paxos quorum: >= 2*45ms.
  EXPECT_GT(r.mean("local"), 80'000);
}

TEST(Integration, FourPartitionsScaleLocalThroughput) {
  MicroConfig mc;
  mc.items_per_partition = 2'000;
  mc.global_fraction = 0.0;

  auto run_with = [&](PartitionId parts, std::uint32_t clients) {
    MicroWorkload wl(mc);
    auto dep = make_micro_dep(DeploymentSpec::Kind::kLan, parts, mc.items_per_partition);
    RunConfig cfg;
    cfg.clients = clients;
    cfg.warmup = sim::sec(1);
    cfg.measure = sim::sec(4);
    return run_experiment(*dep, wl, cfg).throughput("local");
  };

  const double t1 = run_with(1, 64);
  const double t4 = run_with(4, 256);
  EXPECT_GT(t4, t1 * 2.0) << "DSN'12 scalability: local throughput grows with partitions (1p="
                          << t1 << " tps, 4p=" << t4 << " tps)";
}

TEST(Integration, ReorderingReducesLocalTailLatencyInWan1) {
  MicroConfig mc;
  mc.items_per_partition = 5'000;
  mc.global_fraction = 0.1;

  auto run_with = [&](std::uint32_t threshold) {
    MicroWorkload wl(mc);
    auto dep = make_micro_dep(DeploymentSpec::Kind::kWan1, 2, mc.items_per_partition,
                              [&](DeploymentSpec& s) {
                                s.server.techniques.reorder_threshold = threshold;
                              });
    RunConfig cfg;
    cfg.clients = 24;
    cfg.settle = sim::msec(1500);
    cfg.warmup = sim::sec(1);
    cfg.measure = sim::sec(8);
    return run_experiment(*dep, wl, cfg);
  };

  const RunResult baseline = run_with(0);
  const RunResult reordered = run_with(160);
  ASSERT_GT(reordered.classes.at("local").committed, 100u);
  EXPECT_GT(reordered.servers.reordered, 0u) << "reordering must actually trigger";
  EXPECT_LT(reordered.p99("local"), baseline.p99("local"))
      << "paper Section VI-D: reordering reduces local p99 (baseline="
      << baseline.p99("local") / 1000 << "ms reordered=" << reordered.p99("local") / 1000 << "ms)";
}

TEST(Integration, SocialWorkloadAllOperationClasses) {
  SocialConfig sc;
  sc.users_per_partition = 500;

  DeploymentSpec spec;
  spec.kind = DeploymentSpec::Kind::kLan;
  spec.partitions = 2;
  spec.partitioning = SocialWorkload::make_partitioning(2);
  spec.log_write_latency = sim::usec(300);
  auto dep = std::make_unique<Deployment>(spec);

  RunConfig cfg;
  cfg.clients = 16;
  cfg.warmup = sim::sec(1);
  cfg.measure = sim::sec(6);
  const sim::Time stop_at = cfg.settle + cfg.warmup + cfg.measure;
  sc.keep_running = [dep = dep.get(), stop_at] { return dep->simulator().now() < stop_at; };
  SocialWorkload wl(sc);
  const RunResult r = run_experiment(*dep, wl, cfg);

  EXPECT_GT(r.classes.at("timeline").committed, 100u);
  EXPECT_GT(r.classes.at("post").committed, 5u);
  EXPECT_GT(r.classes.at("follow").committed + r.classes.at("follow_global").committed, 5u);
  EXPECT_EQ(r.classes.at("timeline").aborted, 0u) << "read-only transactions never abort";
  // ~85% of committed operations should be timelines.
  const double timeline_share = static_cast<double>(r.classes.at("timeline").committed) /
                                static_cast<double>(r.throughput() * r.duration_sec);
  EXPECT_NEAR(timeline_share, 0.85, 0.08);
  assert_converged(*dep);
}

TEST(Integration, SocialTimelineObservesFollowedPosts) {
  // Deterministic scenario: user A follows user B; B posts; A's timeline
  // (read-only global snapshot) eventually includes B's post.
  SocialConfig sc;
  sc.users_per_partition = 50;
  sc.initial_follows = 0;
  sc.initial_posts = 0;

  DeploymentSpec spec;
  spec.kind = DeploymentSpec::Kind::kLan;
  spec.partitions = 2;
  spec.partitioning = SocialWorkload::make_partitioning(2);
  auto dep = std::make_unique<Deployment>(spec);
  SocialWorkload wl(sc);
  util::Rng rng(1);
  wl.populate(*dep, rng);
  dep->start();
  dep->run_until(sim::msec(300));

  const std::uint64_t user_a = 0;  // partition 0
  const std::uint64_t user_b = 1;  // partition 1
  Client& c = dep->add_client(0);
  auto run = [&](sim::Time t) { dep->run_until(dep->simulator().now() + t); };

  // A follows B (global follow).
  c.begin();
  c.read_many({social_key(user_a, kProducers), social_key(user_b, kConsumers)}, [&](auto vals) {
    auto prod = vals[0] ? decode_id_list(*vals[0]) : std::vector<std::uint64_t>{};
    auto cons = vals[1] ? decode_id_list(*vals[1]) : std::vector<std::uint64_t>{};
    prod.push_back(user_b);
    cons.push_back(user_a);
    c.write(social_key(user_a, kProducers), encode_id_list(prod));
    c.write(social_key(user_b, kConsumers), encode_id_list(cons));
    c.commit([](Outcome o) { ASSERT_EQ(o, Outcome::kCommit); });
  });
  run(sim::sec(2));

  // B posts.
  c.begin();
  c.read(social_key(user_b, kPosts), [&](bool, const std::string& v) {
    auto posts = v.empty() ? std::vector<std::string>{} : decode_post_list(v);
    posts.push_back("hello-from-b");
    c.write(social_key(user_b, kPosts), encode_post_list(posts));
    c.commit([](Outcome o) { ASSERT_EQ(o, Outcome::kCommit); });
  });
  run(sim::sec(2));

  // A's timeline (allow gossip to propagate the snapshot).
  run(sim::msec(200));
  std::vector<std::string> timeline;
  bool done = false;
  c.begin_read_only([&] {
    c.read(social_key(user_a, kProducers), [&](bool, const std::string& v) {
      const auto follows = decode_id_list(v);
      ASSERT_EQ(follows, (std::vector<std::uint64_t>{user_b}));
      c.read(social_key(user_b, kPosts), [&](bool, const std::string& pv) {
        timeline = decode_post_list(pv);
        done = true;
      });
    });
  });
  run(sim::sec(2));
  ASSERT_TRUE(done);
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_EQ(timeline[0], "hello-from-b");
}

TEST(Integration, DelayingKeepsGlobalLatencyComparable) {
  MicroConfig mc;
  mc.items_per_partition = 5'000;
  mc.global_fraction = 0.1;

  auto run_with = [&](bool delaying) {
    MicroWorkload wl(mc);
    auto dep = make_micro_dep(DeploymentSpec::Kind::kWan1, 2, mc.items_per_partition,
                              [&](DeploymentSpec& s) {
                                s.server.techniques.delaying_enabled = delaying;
                              });
    RunConfig cfg;
    cfg.clients = 16;
    cfg.settle = sim::msec(1500);
    cfg.warmup = sim::sec(1);
    cfg.measure = sim::sec(6);
    return run_experiment(*dep, wl, cfg);
  };

  const RunResult base = run_with(false);
  const RunResult delayed = run_with(true);
  ASSERT_GT(delayed.classes.at("global").committed, 10u);
  // Delaying the local broadcast by ~Delta should not add more than ~Delta
  // to global latency (the remote broadcast dominates).
  EXPECT_LT(delayed.mean("global"), base.mean("global") + 100'000);
}

TEST(Integration, FindOperatingPointReturnsReasonableClientCount) {
  MicroConfig mc;
  mc.items_per_partition = 2'000;
  mc.global_fraction = 0.0;

  auto make_dep = [&]() { return make_micro_dep(DeploymentSpec::Kind::kLan, 2, mc.items_per_partition); };
  auto make_wl = [&]() { return std::make_unique<MicroWorkload>(mc); };

  RunConfig probe;
  probe.clients = 4;
  probe.warmup = sim::msec(500);
  probe.measure = sim::sec(2);
  const std::uint32_t clients = find_operating_point(make_dep, make_wl, probe, 0.75, 4, 64);
  EXPECT_GE(clients, 1u);
  EXPECT_LE(clients, 64u);
}

}  // namespace
}  // namespace sdur::workload

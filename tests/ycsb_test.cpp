// YCSB workload and latency-timeline tests.
#include <gtest/gtest.h>

#include "workload/driver.h"
#include "workload/ycsb.h"

namespace sdur::workload {
namespace {

TEST(Ycsb, MixesProduceExpectedClassRatios) {
  YcsbConfig yc;
  yc.mix = YcsbConfig::Mix::kA;
  yc.records_per_partition = 2'000;

  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = YcsbWorkload::make_partitioning(2, yc.records_per_partition);
  spec.paxos.log_write_latency = sim::usec(300);
  Deployment dep(spec);
  YcsbWorkload wl(yc);

  RunConfig cfg;
  cfg.clients = 16;
  cfg.warmup = sim::sec(1);
  cfg.measure = sim::sec(4);
  const RunResult r = run_experiment(dep, wl, cfg);

  const double reads = static_cast<double>(r.classes.at("read").committed);
  const double updates = static_cast<double>(r.classes.at("update").committed);
  ASSERT_GT(reads, 100);
  ASSERT_GT(updates, 100);
  EXPECT_NEAR(updates / (reads + updates), 0.5, 0.06) << "mix A is 50/50";
  EXPECT_EQ(r.classes.at("read").aborted, 0u) << "single-key snapshot reads never abort";
  EXPECT_LT(r.p99("read"), r.p99("update")) << "reads skip the termination protocol";
}

TEST(Ycsb, ReadOnlyMixNeverAborts) {
  YcsbConfig yc;
  yc.mix = YcsbConfig::Mix::kC;
  yc.records_per_partition = 2'000;

  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = YcsbWorkload::make_partitioning(2, yc.records_per_partition);
  Deployment dep(spec);
  YcsbWorkload wl(yc);

  RunConfig cfg;
  cfg.clients = 8;
  cfg.warmup = sim::msec(500);
  cfg.measure = sim::sec(3);
  const RunResult r = run_experiment(dep, wl, cfg);
  EXPECT_GT(r.classes.at("read").committed, 100u);
  EXPECT_EQ(r.classes.count("update"), 0u);
  EXPECT_EQ(r.classes.at("read").aborted, 0u);
}

TEST(Timeline, BucketsCoverTheMeasurementWindow) {
  Recorder rec;
  rec.set_window(sim::sec(1), sim::sec(2));
  rec.enable_timeline(sim::msec(100));
  rec.record("x", Outcome::kCommit, 5'000, sim::msec(1050));
  rec.record("x", Outcome::kCommit, 9'000, sim::msec(1050));
  rec.record("x", Outcome::kCommit, 50'000, sim::msec(1950));
  rec.record("x", Outcome::kAbort, 99'000, sim::msec(1950));  // aborts not in timeline

  const auto& tl = rec.timeline("x");
  ASSERT_EQ(tl.size(), 10u);
  EXPECT_EQ(tl[0].count, 2u);
  EXPECT_EQ(tl[0].max, 9'000);
  EXPECT_DOUBLE_EQ(tl[0].sum, 14'000.0);
  EXPECT_EQ(tl[9].count, 1u);
  EXPECT_EQ(tl[9].max, 50'000);
  EXPECT_EQ(tl[5].count, 0u);
  EXPECT_EQ(tl[0].start, sim::sec(1));
  EXPECT_EQ(tl[9].start, sim::sec(1) + 9 * sim::msec(100));
}

}  // namespace
}  // namespace sdur::workload

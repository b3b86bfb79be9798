#include "chaos_recipe.h"

#include <gtest/gtest.h>

#include <string_view>

#include "audit/audit.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/driver.h"
#include "workload/microbench.h"

namespace sdur::chaos {

using workload::MicroConfig;
using workload::MicroWorkload;
using workload::RunConfig;
using workload::RunResult;

std::uint64_t digest_writer(const util::Writer& w) {
  const util::Bytes& b = w.data();
  return util::fnv1a(std::string_view(reinterpret_cast<const char*>(b.data()), b.size()));
}

bool replicas_agree(Deployment& dep) {
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    util::Writer base;
    for (std::uint32_t rep = 0; rep < dep.replica_count(); ++rep) {
      util::Writer w;
      Server& s = dep.server(p, rep);
      w.i64(s.sc());
      w.i64(s.certified());
      s.store().encode(w);
      if (rep == 0) {
        base = std::move(w);
      } else if (digest_writer(w) != digest_writer(base)) {
        return false;
      }
    }
  }
  return true;
}

ChaosOut run_chaos(const TechniqueConfig& techniques, std::uint32_t cores) {
  DeploymentSpec spec;
  spec.partitions = 3;
  spec.partitioning = MicroWorkload::make_partitioning(3, 90);
  spec.log_write_latency = sim::usec(300);
  spec.server.techniques = techniques;
  spec.server.pdur.cores = cores;
  spec.server.checkpoint_interval = sim::msec(500);
  spec.server.missing_vote_timeout = sim::msec(1500);
  spec.seed = 17;
  spec.client.read_retry_interval = sim::msec(300);
  spec.client.commit_retry_interval = sim::msec(800);
  Deployment dep(spec);
  dep.network().set_loss_rate(0.02);

  RunConfig cfg;
  cfg.clients = 10;
  cfg.seed = 17;
  cfg.warmup = sim::msec(400);
  cfg.measure = sim::sec(2);
  const sim::Time stop_at = cfg.settle + cfg.warmup + cfg.measure;

  MicroConfig mc;
  mc.items_per_partition = 90;
  mc.global_fraction = 0.4;
  mc.keep_running = [&dep, stop_at] { return dep.simulator().now() < stop_at; };
  MicroWorkload wl(mc);

  util::Rng chaos(11);
  for (sim::Time t = sim::sec(1); t < stop_at; t += sim::msec(600)) {
    const PartitionId p = static_cast<PartitionId>(chaos.below(3));
    const std::uint32_t replica = 1 + static_cast<std::uint32_t>(chaos.below(2));
    dep.simulator().schedule_at(t, [&dep, p, replica] { dep.server(p, replica).crash(); });
    dep.simulator().schedule_at(t + sim::msec(400),
                                [&dep, p, replica] { dep.server(p, replica).recover(); });
  }

  const RunResult r = workload::run_experiment(dep, wl, cfg);

  dep.network().set_loss_rate(0);
  for (Server* s : dep.servers()) s->recover();
  dep.run_until(dep.simulator().now() + sim::sec(10));

  ChaosOut out;
  util::Writer w;
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    for (std::uint32_t rep = 0; rep < dep.replica_count(); ++rep) {
      Server& s = dep.server(p, rep);
      w.i64(s.sc());
      w.i64(s.certified());
      w.u64(s.dc());
      s.store().encode(w);
    }
  }
  const sim::NetworkStats& net = dep.network().stats();
  w.u64(net.messages_sent);
  w.u64(net.messages_delivered);
  w.u64(net.messages_dropped);
  w.u64(net.bytes_sent);
  for (sim::MsgType t = 1; t < 50; ++t) {
    w.u64(net.per_type_count.at(t));
    w.u64(net.per_type_bytes.at(t));
  }
  w.u64(dep.simulator().events_processed());
  w.i64(dep.simulator().now());
  out.digest = digest_writer(w);
  for (const auto& [cls, st] : r.classes) out.committed += st.committed;
  out.stats = dep.total_stats();
  out.net = net;
  out.agree = replicas_agree(dep);
  for (Server* s : dep.servers()) {
    out.pending_total += s->pending_count();
    out.spec_outstanding += s->store().speculative_count();
  }
  return out;
}

namespace {

/// Every technique at once (the `all-on` preset), on serial and on P-DUR
/// replicas: the combination converges under the same chaos.
void expect_all_on_converges(std::uint32_t cores) {
  const ChaosOut r = run_chaos(*TechniqueConfig::preset("all-on"), cores);
  EXPECT_TRUE(r.agree) << "replicas of each partition converged byte-for-byte";
  EXPECT_EQ(r.pending_total, 0u) << "every pending global resolved after heal";
  EXPECT_EQ(r.spec_outstanding, 0u) << "no speculative version outlived its votes";
  EXPECT_GT(r.committed, 20u) << "the chaos run made real progress";
#if SDUR_AUDIT_ON
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
#endif
}

TEST(ChaosRecipe, AllOnConvergesSerial) { expect_all_on_converges(1); }

TEST(ChaosRecipe, AllOnConvergesFourCores) { expect_all_on_converges(4); }

}  // namespace
}  // namespace sdur::chaos

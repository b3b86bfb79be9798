#include "workload/scenario.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <utility>

#include "audit/audit.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"

#if SDUR_AUDIT_ON
#include "audit/auditor.h"
#endif

namespace sdur::workload {

namespace {

void write_state(Deployment& dep, util::Writer& w) {
  for (const Server* s : dep.servers()) {
    w.i64(s->sc());
    w.i64(s->certified());
    w.u64(s->dc());
    s->store().encode(w);
  }
}

}  // namespace

void schedule_faults(Deployment& dep, const FaultSchedule& faults, sim::Time stop) {
  dep.network().set_loss_rate(faults.loss);
  std::vector<Crash> crashes = faults.crashes;
  if (faults.churn.every > 0) {
    util::Rng rng(faults.churn.seed);
    for (sim::Time t = faults.churn.from; t < stop; t += faults.churn.every) {
      const auto p = static_cast<PartitionId>(rng.below(dep.partition_count()));
      const auto replica = 1 + static_cast<std::uint32_t>(rng.below(dep.replica_count() - 1));
      crashes.push_back(Crash{p, replica, t, faults.churn.down});
    }
  }
  for (const Crash& c : crashes) {
    Server& victim = dep.server(c.partition, c.replica);
    dep.simulator().schedule_at(c.at, [&victim] { victim.crash(); });
    if (c.down > 0) dep.simulator().schedule_at(c.at + c.down, [&victim] { victim.recover(); });
  }
  for (const LossWindow& w : faults.loss_windows) {
    sim::Network& net = dep.network();
    dep.simulator().schedule_at(w.from, [&net, rate = w.rate] { net.set_loss_rate(rate); });
    dep.simulator().schedule_at(w.to, [&net, base = faults.loss] { net.set_loss_rate(base); });
  }
}

Built build(const Scenario& s, sim::Time stop) {
  DeploymentSpec spec = s.spec;
  switch (s.workload) {
    case WorkloadKind::kMicro:
      spec.partitioning =
          MicroWorkload::make_partitioning(spec.partitions, s.micro.items_per_partition);
      break;
    case WorkloadKind::kSocial:
      spec.partitioning = SocialWorkload::make_partitioning(spec.partitions);
      break;
    case WorkloadKind::kYcsb:
      spec.partitioning =
          YcsbWorkload::make_partitioning(spec.partitions, s.ycsb.records_per_partition);
      break;
  }
  Built b;
  b.dep = std::make_unique<Deployment>(std::move(spec));
  Deployment& dep = *b.dep;
  std::function<bool()> keep_running;
  if (stop != sim::kNever) keep_running = [&dep, stop] { return dep.simulator().now() < stop; };
  switch (s.workload) {
    case WorkloadKind::kMicro: {
      MicroConfig mc = s.micro;
      mc.cores = s.core_aware ? dep.spec().server.pdur.cores : 1;
      if (keep_running) mc.keep_running = std::move(keep_running);
      if (s.history) {
        b.checker = std::make_shared<SerializabilityChecker>();
        mc.commit_hook = [c = b.checker.get()](TxId id, std::vector<std::pair<Key, TxId>> reads,
                                               std::vector<Key> writes) {
          c->add_committed(id, std::move(reads), std::move(writes));
        };
      }
      b.workload = std::make_shared<MicroWorkload>(std::move(mc));
      break;
    }
    case WorkloadKind::kSocial: {
      SocialConfig sc = s.social;
      if (keep_running) sc.keep_running = std::move(keep_running);
      b.workload = std::make_shared<SocialWorkload>(std::move(sc));
      break;
    }
    case WorkloadKind::kYcsb: {
      YcsbConfig yc = s.ycsb;
      if (keep_running) yc.keep_running = std::move(keep_running);
      b.workload = std::make_shared<YcsbWorkload>(std::move(yc));
      break;
    }
  }
  dep.retain(b.workload);
  if (b.checker) dep.retain(b.checker);
  return b;
}

std::uint32_t find_operating_point(const Scenario& probe, double fraction,
                                   std::uint32_t start_clients, std::uint32_t max_clients) {
  struct Point {
    std::uint32_t clients;
    double tput;
  };
  std::vector<Point> points;
  auto measure = [&](std::uint32_t clients) {
    Scenario s = probe;
    s.run.clients = clients;
    const Built b = build(s);
    const double tput = run_experiment(*b.dep, *b.workload, s.run).throughput();
    points.push_back({clients, tput});
    SDUR_INFO("driver") << "probe clients=" << clients << " tput=" << tput;
    return tput;
  };
  // Double the offered load until saturation or the cap. Mixed workloads
  // have a convoy plateau (latency jumps once globals appear before
  // throughput picks up again with more clients), so require two
  // consecutive low-gain doublings before declaring saturation.
  std::uint32_t clients = std::max(start_clients, 1u);
  double best = measure(clients);
  int flat_rounds = 0;
  while (clients * 2 <= max_clients) {
    const double t = measure(clients * 2);
    clients *= 2;
    if (t < best * 1.08) {
      if (++flat_rounds >= 2) {
        best = std::max(best, t);
        break;
      }
    } else {
      flat_rounds = 0;
    }
    best = std::max(best, t);
  }

  // Interpolate the client count whose throughput is ~fraction*best.
  const double target = fraction * best;
  std::uint32_t candidate = points.back().clients;
  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) { return a.clients < b.clients; });
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].tput >= target) {
      if (i == 0) {
        candidate = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(points[0].clients * target / std::max(points[0].tput, 1.0)));
      } else {
        const double span = points[i].tput - points[i - 1].tput;
        const double alpha = span <= 0 ? 1.0 : (target - points[i - 1].tput) / span;
        candidate = points[i - 1].clients +
                    static_cast<std::uint32_t>(alpha * (points[i].clients - points[i - 1].clients));
      }
      break;
    }
  }
  candidate = std::clamp<std::uint32_t>(candidate, 1, max_clients);
  SDUR_INFO("driver") << "operating point: clients=" << candidate << " (target " << target
                      << " tps of max " << best << ")";
  return candidate;
}

ScenarioResult run_scenario(const Scenario& s,
                            const std::function<void(Deployment&)>& before_start) {
  const sim::Time stop_at = s.run.settle + s.run.warmup + s.run.measure;
  Built b = build(s, stop_at);
  ScenarioResult out;
  out.dep = std::move(b.dep);
  Deployment& dep = *out.dep;
  if (before_start) before_start(dep);
  const std::uint64_t violations_before = audit_violations();
  schedule_faults(dep, s.faults, stop_at);

  out.run = run_experiment(dep, *b.workload, s.run);
  // Heal: loss off, every replica up.
  dep.network().set_loss_rate(0);
  for (Server* srv : dep.servers()) srv->recover();
  if (s.drain > 0) dep.run_until(dep.simulator().now() + s.drain);

  for (const auto& [cls, st] : out.run.classes) {
    out.committed += st.committed;
    out.aborted += st.aborted;
    out.unknown += st.unknown;
  }
  out.digest = digest(dep);
  out.new_violations = audit_violations() - violations_before;
  out.agree = replicas_agree(dep);
  out.drained = drained(dep);
  if (b.checker) {
    read_key_orders(dep, *b.checker);
    out.history_commits = b.checker->committed_count();
    out.serializable = b.checker->check(&out.why);
  }
  return out;
}

Scenario chaos_recipe(const TechniqueConfig& techniques, std::uint32_t cores) {
  Scenario s;
  s.spec.partitions = 3;
  s.spec.paxos.log_write_latency = sim::usec(300);
  s.spec.server.techniques = techniques;
  s.spec.server.pdur.cores = cores;
  s.spec.server.checkpoint_interval = sim::msec(500);
  s.spec.server.missing_vote_timeout = sim::msec(1500);
  s.spec.seed = 17;
  s.spec.client.commit_retry_interval = sim::msec(800);
  s.run = {.clients = 10, .warmup = sim::msec(400), .measure = sim::sec(2), .seed = 17};
  s.micro = {.items_per_partition = 90, .global_fraction = 0.4};
  s.core_aware = false;
  s.faults.loss = 0.02;
  s.faults.churn = {.seed = 11, .from = sim::sec(1), .every = sim::msec(600), .down = sim::msec(400)};
  s.drain = sim::sec(10);
  return s;
}

Scenario torture_recipe() {
  Scenario s;
  s.spec.partitions = 2;
  s.spec.paxos.log_write_latency = sim::usec(300);
  s.spec.server.techniques.reorder_threshold = 48;
  s.spec.server.checkpoint_interval = sim::msec(600);
  s.spec.server.missing_vote_timeout = sim::msec(1500);
  s.spec.seed = 31;
  s.spec.client.commit_retry_interval = sim::msec(800);
  s.run = {.clients = 8, .warmup = sim::msec(400), .measure = sim::sec(2), .seed = 31};
  s.micro = {.items_per_partition = 60, .global_fraction = 0.3};
  s.faults.loss = 0.03;
  s.faults.churn = {.seed = 7, .from = sim::sec(1), .every = sim::msec(700), .down = sim::msec(450)};
  s.drain = sim::sec(10);
  return s;
}

std::uint64_t hash_of(const util::Writer& w) {
  const util::Bytes& b = w.data();
  return util::fnv1a(std::string_view(reinterpret_cast<const char*>(b.data()), b.size()));
}

std::uint64_t state_digest(Deployment& dep) {
  util::Writer w;
  write_state(dep, w);
  return hash_of(w);
}

std::uint64_t digest(Deployment& dep) {
  util::Writer w;
  write_state(dep, w);
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
  return hash_of(w);
}

bool replicas_agree(Deployment& dep) {
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    std::optional<util::Bytes> first;
    for (std::uint32_t rep = 0; rep < dep.replica_count(); ++rep) {
      Server& s = dep.server(p, rep);
      if (s.crashed()) continue;
      util::Writer w;
      w.i64(s.sc());
      w.i64(s.certified());
      s.store().encode(w);
      if (!first) first = w.data();
      if (w.data() != *first) return false;
    }
  }
  return true;
}

bool drained(Deployment& dep) {
  for (Server* s : dep.servers()) {
    if (s->crashed()) continue;
    if (s->pending_count() != 0 || s->certified() != s->sc() || s->round_count() != 0) return false;
  }
  return true;
}

void read_key_orders(Deployment& dep, SerializabilityChecker& checker) {
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    std::uint32_t ref = 0;
    while (ref + 1 < dep.replica_count() && dep.server(p, ref).crashed()) ++ref;
    const storage::MVStore& store = dep.server(p, ref).store();
    for (Key k : store.keys()) {
      std::vector<TxId> order;
      for (const auto& vv : *store.versions_of(k)) {
        if (vv.version != 0) order.push_back(MicroWorkload::decode_writer(vv.value));
      }
      checker.set_key_order(k, std::move(order));
    }
  }
}

std::uint64_t audit_violations() {
#if SDUR_AUDIT_ON
  return audit::Auditor::instance().total_violations();
#else
  return 0;
#endif
}

}  // namespace sdur::workload

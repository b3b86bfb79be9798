#include "workload/scenario.h"

#include <optional>
#include <string_view>
#include <utility>

#include "audit/audit.h"
#include "util/hash.h"
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

ScenarioResult run_scenario(const Scenario& s,
                            const std::function<void(Deployment&)>& before_start) {
  DeploymentSpec spec = s.spec;
  spec.partitioning = MicroWorkload::make_partitioning(spec.partitions, s.micro.items_per_partition);
  ScenarioResult out;
  out.dep = std::make_unique<Deployment>(std::move(spec));
  Deployment& dep = *out.dep;
  if (before_start) before_start(dep);
  const std::uint64_t violations_before = audit_violations();
  const sim::Time stop_at = s.run.settle + s.run.warmup + s.run.measure;
  schedule_faults(dep, s.faults, stop_at);

  // The workload and the checker live as long as the deployment: its
  // sessions read their config, and record commits, whenever it runs.
  auto checker = std::make_shared<SerializabilityChecker>();
  MicroConfig mc = s.micro;
  mc.cores = s.core_aware ? dep.spec().server.pdur.cores : 1;
  mc.keep_running = [&dep, stop_at] { return dep.simulator().now() < stop_at; };
  if (s.history) {
    mc.commit_hook = [c = checker.get()](TxId id, std::vector<std::pair<Key, TxId>> reads,
                                         std::vector<Key> writes) {
      c->add_committed(id, std::move(reads), std::move(writes));
    };
  }
  auto wl = std::make_shared<MicroWorkload>(std::move(mc));
  dep.retain(wl);
  dep.retain(checker);

  out.run = run_experiment(dep, *wl, s.run);
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
  if (s.history) {
    read_key_orders(dep, *checker);
    out.history_commits = checker->committed_count();
    out.serializable = checker->check(&out.why);
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

#include "probes.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "paxos/engine.h"
#include "sdur/certifier.h"
#include "sdur/config.h"
#include "sdur/technique_config.h"
#include "sim/process.h"
#include "storage/mvstore.h"
#include "workload/microbench.h"

namespace perfbench {

namespace sim = sdur::sim;
using sdur::PartTx;
using Clock = std::chrono::steady_clock;

namespace {

/// Seconds each repeated-loop probe keeps timing.
constexpr double kProbeSeconds = 0.15;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Repeats `pass` (which returns the calls it made) for kProbeSeconds;
/// returns nanoseconds per call.
template <class Pass>
double ns_per_call(Pass pass) {
  const auto t0 = Clock::now();
  std::uint64_t calls = 0;
  double elapsed = 0;
  do {
    calls += pass();
    elapsed = seconds_since(t0);
  } while (elapsed < kProbeSeconds);
  return calls == 0 ? 0 : elapsed * 1e9 / static_cast<double>(calls);
}

/// The workload's update transactions projected onto partition 0, as the
/// contact server would broadcast them.
std::vector<PartTx> partition0_projections(const WorkloadSpec& w,
                                           const std::vector<Arrival>& arrivals) {
  std::vector<PartTx> out;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    if (a.cls == TxClass::kReadOnly) continue;
    PartTx t;
    t.id = i + 1;
    t.client = 10'000;
    t.contact = 1;
    std::vector<Key> keys;
    for (Key k : a.keys) {
      const auto p = static_cast<PartitionId>(k / w.items_per_partition);
      if (std::find(t.involved.begin(), t.involved.end(), p) == t.involved.end()) {
        t.involved.push_back(p);
      }
      if (p == 0) keys.push_back(k);
    }
    if (keys.empty()) continue;
    std::sort(t.involved.begin(), t.involved.end());
    std::sort(keys.begin(), keys.end());
    for (Key k : keys) {
      t.writes.push_back({k, sdur::workload::MicroWorkload::encode_value(t.id, w.value_size)});
    }
    t.readset = sdur::util::KeySet::exact(keys);
    t.write_keys = sdur::util::KeySet::exact(keys);
    out.push_back(std::move(t));
  }
  return out;
}

/// A bare Paxos replica: the engine hosted on a simulated process.
class PaxosHost : public sim::Process {
 public:
  PaxosHost(sim::Network& net, sim::ProcessId pid, sim::Location loc, sdur::paxos::GroupConfig cfg)
      : sim::Process(net, pid, "probe-paxos-" + std::to_string(pid), loc) {
    engine_ = std::make_unique<sdur::paxos::PaxosEngine>(
        *this, std::move(cfg), std::make_unique<sdur::paxos::InMemoryDurableLog>(),
        [this](const sdur::paxos::Value&) { ++delivered; });
  }
  sdur::paxos::PaxosEngine& engine() { return *engine_; }
  std::uint64_t delivered = 0;

 protected:
  void on_message(const sim::Message& m, sim::ProcessId from) override {
    if (sdur::paxos::PaxosEngine::handles(m.type)) engine_->handle_message(m, from);
  }

 private:
  std::unique_ptr<sdur::paxos::PaxosEngine> engine_;
};

/// A process that ignores what it receives (the fabric probe's sinks).
class Sink : public sim::Process {
 public:
  using sim::Process::Process;

 protected:
  void on_message(const sim::Message&, sim::ProcessId) override {}
};

sim::Topology topology_of(const WorkloadSpec& w) {
  sim::Topology t = w.kind == sdur::DeploymentSpec::Kind::kLan ? sim::Topology::lan()
                                                               : sim::Topology::ec2_three_regions();
  t.set_jitter(0.05);
  return t;
}

/// Partition 0's replica placement (WAN: two replicas in the home region,
/// one away; LAN: one region).
sim::Location replica_location(const WorkloadSpec& w, std::uint16_t r) {
  if (w.kind == sdur::DeploymentSpec::Kind::kLan) return {0, r};
  return {r < 2 ? sim::kEU : sim::kUSEast, r};
}

/// Fabric: one sender fans each encoded projection out to the three
/// replica locations, one projection per simulated 100 us.
double probe_sim(const WorkloadSpec& w, const std::vector<sdur::util::Bytes>& payloads) {
  std::vector<sim::Message> msgs;
  for (const auto& p : payloads) msgs.emplace_back(60, p);
  return ns_per_call([&] {
    sim::Simulator s;
    sim::Network net(s, topology_of(w), 1);
    Sink hub(net, 1, "probe-hub", replica_location(w, 0));
    std::vector<std::unique_ptr<Sink>> sinks;
    for (std::uint16_t r = 0; r < 3; ++r) {
      sinks.push_back(std::make_unique<Sink>(net, 2 + r, "probe-sink", replica_location(w, r)));
    }
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      s.schedule_at(static_cast<sim::Time>(i) * 100, [&, i] {
        for (sim::ProcessId p = 2; p < 5; ++p) hub.send(p, msgs[i]);
      });
    }
    s.run();
    return s.events_processed();
  });
}

/// Paxos: a three-replica group orders the encoded projections, proposed
/// at their due times; the simulator's share is removed with the fabric
/// probe's price per event.
double probe_paxos(const WorkloadSpec& w, const std::vector<Arrival>& arrivals,
                   const std::vector<PartTx>& txs,
                   const std::vector<sdur::util::Bytes>& payloads, double sim_ns_per_event) {
  sim::Simulator s;
  sim::Network net(s, topology_of(w), 1);
  sdur::paxos::GroupConfig group;
  group.members = {1, 2, 3};
  group.log_write_latency = sim::msec(4);
  std::vector<std::unique_ptr<PaxosHost>> hosts;
  for (std::uint16_t r = 0; r < 3; ++r) {
    sdur::paxos::GroupConfig g = group;
    g.self_index = r;
    hosts.push_back(std::make_unique<PaxosHost>(net, 1 + r, replica_location(w, r), g));
  }
  for (auto& h : hosts) h->engine().start();
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const sim::Time due = arrivals[txs[i].id - 1].due;
    s.schedule_at(due, [&hosts, &payloads, i] { hosts[0]->engine().propose(payloads[i]); });
  }
  const sim::Time end = w.window_end() + sim::sec(2);
  const auto t0 = Clock::now();
  s.run_until(end);
  const double wall_ns = seconds_since(t0) * 1e9;
  std::uint64_t delivered = 0;
  for (auto& h : hosts) delivered += h->delivered;
  if (delivered == 0) return 0;
  const double paxos_ns = wall_ns - static_cast<double>(s.events_processed()) * sim_ns_per_event;
  return std::max(0.0, paxos_ns) / static_cast<double>(delivered);
}

}  // namespace

ProbeResults run_probes(const WorkloadSpec& w, const std::vector<Arrival>& arrivals,
                        std::int64_t window_depth) {
  ProbeResults r;
  const std::vector<PartTx> txs = partition0_projections(w, arrivals);
  if (txs.empty()) return r;
  std::vector<sdur::util::Bytes> payloads;
  for (const PartTx& t : txs) payloads.push_back(t.encode());

  r.codec_ns_per_parttx = ns_per_call([&] {
    std::uint64_t sink = 0;
    for (const PartTx& t : txs) sink += PartTx::decode(t.encode()).writes.size();
    return sink == 0 ? 0 : txs.size();
  });

  // MVStore: load the partition, then apply the projections' writes as
  // successive versions and read them back at recent snapshots.
  sdur::storage::MVStore store;
  const std::string initial = sdur::workload::MicroWorkload::encode_value(0, w.value_size);
  {
    const auto t0 = Clock::now();
    for (Key k = 0; k < w.items_per_partition; ++k) store.load(k, initial);
    r.mvstore_ns_per_load = seconds_since(t0) * 1e9 / static_cast<double>(w.items_per_partition);
  }
  sdur::storage::Version version = 0;
  r.mvstore_ns_per_put = ns_per_call([&] {
    std::uint64_t calls = 0;
    for (const PartTx& t : txs) {
      ++version;
      for (const auto& op : t.writes) store.put(op.key, op.value, version);
      calls += t.writes.size();
    }
    return calls;
  });
  r.mvstore_ns_per_get = ns_per_call([&] {
    std::uint64_t calls = 0, found = 0;
    for (std::size_t i = 0; i < txs.size(); ++i) {
      const sdur::storage::Version snapshot = version - static_cast<std::int64_t>(i % 64);
      for (Key k : txs[i].write_keys.keys()) found += store.get(k, snapshot).has_value();
      calls += txs[i].write_keys.keys().size();
    }
    return found == 0 ? 0 : calls;
  });

  // Certifier with the workload's cores and bypass gate; each projection
  // carries a snapshot `window_depth` versions old and is resolved at once.
  sdur::TechniqueConfig techniques;
  sdur::parse_techniques(w.techniques, techniques);
  sdur::Certifier cert(sdur::ServerConfigData{}.window_capacity, w.cores, techniques.ooo_bypass);
  std::uint64_t dc = 0;
  sdur::TxId next_id = 1;
  r.certifier_ns_per_cert = ns_per_call([&] {
    for (PartTx t : txs) {
      t.id = next_id++;
      t.snapshot = std::max<sdur::storage::Version>(0, cert.certified() - window_depth);
      cert.process(t, 0, ++dc);
      while (!cert.empty()) {
        const sdur::PendingEntry e = cert.pop_head();
        cert.resolve(e, true);
      }
    }
    return txs.size();
  });

  r.sim_ns_per_event = probe_sim(w, payloads);
  r.paxos_ns_per_value = probe_paxos(w, arrivals, txs, payloads, r.sim_ns_per_event);
  return r;
}

}  // namespace perfbench

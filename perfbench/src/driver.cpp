#include "driver.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "trace/trace.h"
#include "workload/history.h"
#include "workload/microbench.h"

namespace perfbench {

namespace sim = sdur::sim;
using sdur::Client;
using sdur::Deployment;
using sdur::Outcome;
using sdur::Server;
using sdur::TxId;
using sdur::workload::MicroWorkload;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}


/// Idle clients per home partition.
using ClientPool = std::vector<std::vector<Client*>>;

/// Replays the arrival schedule: each arrival takes an idle client of its
/// home partition, or waits in that partition's backlog until one frees up.
/// Only one arrival event is queued in the simulator at a time.
class OpenLoop {
 public:
  OpenLoop(Deployment& dep, const WorkloadSpec& w, const std::vector<Arrival>& arrivals,
           ClientPool pool, RunOutput& out)
      : dep_(dep), w_(w), arrivals_(arrivals), out_(out), idle_(std::move(pool)),
        backlog_(w.partitions), txids_(arrivals.size(), 0), reads_(arrivals.size()) {
    out_.txs.assign(arrivals.size(), RunOutput::Tx{});
  }

  void arm() {
    if (!arrivals_.empty()) schedule(0);
  }

  /// Stops handing backlogged arrivals to clients (end of the window).
  void close() { accepting_ = false; }

  std::size_t in_flight() const { return in_flight_; }
  TxId txid(std::size_t i) const { return txids_[i]; }
  const std::vector<std::pair<Key, TxId>>& reads(std::size_t i) const { return reads_[i]; }

 private:
  Time now() { return dep_.simulator().now(); }

  void schedule(std::size_t i) {
    dep_.simulator().schedule_at(arrivals_[i].due, [this, i] { arrive(i); });
  }

  void arrive(std::size_t i) {
    if (i + 1 < arrivals_.size()) schedule(i + 1);
    const PartitionId home = arrivals_[i].home;
    if (!idle_[home].empty()) {
      Client* c = idle_[home].back();
      idle_[home].pop_back();
      start(i, *c);
    } else {
      backlog_[home].push_back(i);
      ++backlog_size_;
      out_.max_backlog = std::max(out_.max_backlog, backlog_size_);
    }
    out_.backlog.emplace_back(now(), backlog_size_);
  }

  void start(std::size_t i, Client& c) {
    ++in_flight_;
    out_.txs[i].begin = now();
    if (arrivals_[i].cls == TxClass::kReadOnly) {
      const Time t0 = now();
      c.begin_read_only([this, i, &c, t0] {
        out_.snapshot_us.push_back(now() - t0);
        read_phase(i, c);
      });
    } else {
      c.begin();
      read_phase(i, c);
    }
  }

  void read_phase(std::size_t i, Client& c) {
    txids_[i] = c.current_txid();
    const Time t0 = now();
    c.read_many(arrivals_[i].keys, [this, i, &c, t0](std::vector<std::optional<std::string>> vals) {
      out_.read_us.push_back(now() - t0);
      const Arrival& a = arrivals_[i];
      for (std::size_t k = 0; k < a.keys.size(); ++k) {
        reads_[i].emplace_back(a.keys[k], vals[k] ? MicroWorkload::decode_writer(*vals[k]) : 0);
      }
      const bool update = a.cls != TxClass::kReadOnly;
      if (update) {
        for (Key k : a.keys) c.write(k, MicroWorkload::encode_value(txids_[i], w_.value_size));
      }
      const Time t1 = now();
      c.commit([this, i, &c, t1, update](Outcome o) {
        if (update) out_.commit_us.push_back(now() - t1);
        finish(i, c, o);
      });
    });
  }

  void finish(std::size_t i, Client& c, Outcome o) {
    --in_flight_;
    out_.txs[i].done = now();
    out_.txs[i].outcome = o;
    auto& queue = backlog_[arrivals_[i].home];
    if (accepting_ && !queue.empty()) {
      const std::size_t next = queue.front();
      queue.pop_front();
      --backlog_size_;
      start(next, c);
    } else {
      idle_[arrivals_[i].home].push_back(&c);
    }
  }

  Deployment& dep_;
  const WorkloadSpec& w_;
  const std::vector<Arrival>& arrivals_;
  RunOutput& out_;
  ClientPool idle_;
  std::vector<std::deque<std::size_t>> backlog_;
  std::uint32_t backlog_size_ = 0;
  std::size_t in_flight_ = 0;
  bool accepting_ = true;
  std::vector<TxId> txids_;
  std::vector<std::vector<std::pair<Key, TxId>>> reads_;
};

std::unique_ptr<Deployment> build_deployment(const WorkloadSpec& w) {
  sdur::DeploymentSpec spec;
  spec.kind = w.kind;
  spec.partitions = w.partitions;
  spec.replicas = 3;
  spec.partitioning = make_partitioning(w);
  std::string error;
  if (!sdur::parse_techniques(w.techniques, spec.server.techniques, &error)) {
    throw std::invalid_argument("techniques '" + w.techniques + "': " + error);
  }
  spec.server.pdur.cores = w.cores;
  return std::make_unique<Deployment>(std::move(spec));
}

/// The work setup_s times: Deployment build, data load, the client pool
/// and start().
std::unique_ptr<Deployment> set_up(const WorkloadSpec& w, ClientPool& pool) {
  std::unique_ptr<Deployment> dep = build_deployment(w);
  const std::uint64_t total_keys = w.items_per_partition * w.partitions;
  // Every value carries its writer's txid (0 = initial load), so the gate
  // can rebuild the committed history from the stores.
  for (Key k = 0; k < total_keys; ++k) dep->load(k, MicroWorkload::encode_value(0, w.value_size));
  pool.assign(w.partitions, {});
  for (PartitionId p = 0; p < w.partitions; ++p) {
    for (std::uint32_t i = 0; i < w.pool_per_partition; ++i) pool[p].push_back(&dep->add_client(p));
  }
  dep->start();
  return dep;
}

std::vector<std::vector<Time>> core_busy(Deployment& dep) {
  std::vector<std::vector<Time>> out;
  for (Server* s : dep.servers()) {
    std::vector<Time> cores;
    for (std::size_t c = 0; c < s->core_count(); ++c) cores.push_back(s->core_busy_time(c));
    out.push_back(std::move(cores));
  }
  return out;
}

WindowCounters read_counters(Deployment& dep, const std::vector<std::vector<Time>>& busy_at_start) {
  WindowCounters c;
  c.events = dep.simulator().events_processed();
  c.net = dep.network().stats();
  c.fabric = sim::fabric_counters();
  c.servers = dep.total_stats();
  for (Server* s : dep.servers()) {
    const auto& ps = s->engine().stats();
    c.paxos_values_delivered += ps.delivered_values;
    c.paxos_instances_decided += ps.decided_instances;
    c.paxos_elections += ps.leader_elections;
    c.paxos_state_transfers += ps.state_transfers_installed;
  }
  for (Client* cl : dep.clients()) {
    c.client_commit_retries += cl->stats().commit_retries;
    c.client_timeouts += cl->stats().timeouts;
  }
  c.core_busy = core_busy(dep);
  for (std::size_t s = 0; s < c.core_busy.size(); ++s) {
    for (std::size_t k = 0; k < c.core_busy[s].size(); ++k) {
      c.core_busy[s][k] -= busy_at_start[s][k];
    }
  }
  return c;
}

/// No transaction in flight anywhere: every replica is up, has an empty
/// pending list and no speculative versions, and agrees with its peers on
/// the certified and delivered prefixes.
bool quiescent(Deployment& dep) {
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    Server& ref = dep.server(p, 0);
    for (std::uint32_t r = 0; r < dep.replica_count(); ++r) {
      Server& s = dep.server(p, r);
      if (s.crashed() || s.pending_count() != 0 || s.sc() != s.certified() ||
          s.store().speculative_count() != 0 || s.certified() != ref.certified() ||
          s.dc() != ref.dc()) {
        return false;
      }
    }
  }
  return true;
}

/// Each writer's installed versions: (key, version) pairs.
using Installed = std::unordered_map<TxId, std::vector<std::pair<Key, sdur::Version>>>;

/// Counts committed read-only transactions whose reads cut through a global
/// update: on one partition they certainly include its write, on another
/// they certainly exclude it. A read of key k that returned the version at
/// v places the transaction's snapshot of k's partition in [v, next - 1],
/// next being k's following version. Fails (empty optional) when a read
/// returned a value no committed writer installed.
std::optional<std::uint64_t> fractured_read_only(Deployment& dep,
                                                 const std::vector<Arrival>& arrivals,
                                                 const OpenLoop& loop, const RunOutput& out,
                                                 const Installed& installed) {
  const PartitionId parts = dep.partition_count();
  const sdur::Partitioning& partitioning = *dep.partitioning();
  constexpr sdur::Version kNone = std::numeric_limits<sdur::Version>::max();

  // Per ordered partition pair (p, q): every global's (version at p,
  // version at q), sorted by the first with a running max of the second.
  std::vector<std::vector<std::pair<sdur::Version, sdur::Version>>> globals(parts * parts);
  for (const auto& [writer, writes] : installed) {
    std::vector<sdur::Version> at(parts, -1);
    for (const auto& [k, v] : writes) at[partitioning.partition_of(k)] = v;
    for (PartitionId p = 0; p < parts; ++p) {
      for (PartitionId q = 0; q < parts; ++q) {
        if (p != q && at[p] >= 0 && at[q] >= 0) globals[p * parts + q].emplace_back(at[p], at[q]);
      }
    }
  }
  for (auto& g : globals) {
    std::sort(g.begin(), g.end());
    for (std::size_t i = 1; i < g.size(); ++i) g[i].second = std::max(g[i].second, g[i - 1].second);
  }

  std::uint64_t fractured = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (arrivals[i].cls != TxClass::kReadOnly || out.txs[i].outcome != Outcome::kCommit) continue;
    std::vector<sdur::Version> lo(parts, -1), hi(parts, kNone);
    for (const auto& [k, writer] : loop.reads(i)) {
      sdur::Version v = 0;
      if (writer != 0) {
        const auto it = installed.find(writer);
        if (it == installed.end()) return std::nullopt;
        const auto kv = std::find_if(it->second.begin(), it->second.end(),
                                     [k = k](const auto& e) { return e.first == k; });
        if (kv == it->second.end()) return std::nullopt;
        v = kv->second;
      }
      const PartitionId p = partitioning.partition_of(k);
      const auto* chain = dep.server(p, 0).store().versions_of(k);
      const std::size_t next = chain->upper_bound(v);
      lo[p] = std::max(lo[p], v);
      if (next < chain->size()) hi[p] = std::min(hi[p], (*chain)[next].version - 1);
    }
    bool cut = false;
    for (PartitionId p = 0; p < parts && !cut; ++p) {
      for (PartitionId q = 0; q < parts && !cut; ++q) {
        if (p == q || lo[p] < 0 || hi[q] == kNone) continue;
        const auto& g = globals[p * parts + q];
        const auto last = std::upper_bound(g.begin(), g.end(), std::pair{lo[p], kNone});
        cut = last != g.begin() && std::prev(last)->second > hi[q];
      }
    }
    if (cut) ++fractured;
  }
  return fractured;
}

/// The correctness gate: byte-equal replicas, a serializable history of
/// committed updates, and every acknowledged commit installed on its keys.
/// Also counts fractured read-only snapshots into `out`.
std::string check_correctness(Deployment& dep, const std::vector<Arrival>& arrivals,
                              const OpenLoop& loop, RunOutput& out) {
  // Every replica of a partition holds a byte-equal store.
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    sdur::util::Writer ref;
    dep.server(p, 0).store().encode(ref);
    for (std::uint32_t r = 1; r < dep.replica_count(); ++r) {
      sdur::util::Writer w;
      dep.server(p, r).store().encode(w);
      if (w.data() != ref.data()) {
        return "partition " + std::to_string(p) + " replica " + std::to_string(r) +
               " store differs from replica 0";
      }
    }
  }

  // Version chains of replica 0: the per-key writer order, and what each
  // writer installed.
  sdur::workload::SerializabilityChecker checker;
  Installed installed;
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    const auto& store = dep.server(p, 0).store();
    for (Key k : store.keys()) {
      const auto* chain = store.versions_of(k);
      if (chain->front().version != 0) {
        return "key " + std::to_string(k) +
               " lost its initial version to garbage collection; the window is too long "
               "for the history check";
      }
      if (chain->size() == 1) continue;
      std::vector<TxId> order;
      for (const auto& vv : *chain) {
        if (vv.version == 0) continue;
        order.push_back(MicroWorkload::decode_writer(vv.value));
        installed[order.back()].emplace_back(k, vv.version);
      }
      checker.set_key_order(k, std::move(order));
    }
  }

  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    if (out.txs[i].outcome != Outcome::kCommit || a.cls == TxClass::kReadOnly) continue;
    checker.add_committed(loop.txid(i), loop.reads(i), a.keys);
    std::vector<Key> want = a.keys;
    std::vector<Key> got;
    for (const auto& [k, v] : installed[loop.txid(i)]) got.push_back(k);
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    if (want != got) {
      return "acknowledged commit of tx " + std::to_string(loop.txid(i)) +
             " is missing from its keys' version chains";
    }
  }
  std::string why;
  if (!checker.check(&why)) return "update history is not serializable: " + why;

  const auto fractured = fractured_read_only(dep, arrivals, loop, out, installed);
  if (!fractured) return "a read-only transaction read a value no committed update installed";
  out.ro_fractured = *fractured;
  return "";
}

}  // namespace

RunOutput run_workload(const WorkloadSpec& w, const std::vector<Arrival>& arrivals, bool traced,
                       bool gate) {
  RunOutput out;
  auto& tracer = sdur::trace::Tracer::instance();
  tracer.reset();
  if (traced) {
    // Measured at 10-29 records per arrival; the headroom keeps every chain
    // of the window in the ring (checked below).
    tracer.set_ring_capacity((std::size_t{1} << 18) + arrivals.size() * 40);
    tracer.set_enabled(true);
  }
  sim::fabric_counters().reset();

  const auto t_setup = Clock::now();
  ClientPool pool;
  std::unique_ptr<Deployment> dep = set_up(w, pool);
  out.setup_s = seconds_since(t_setup);
  OpenLoop loop(*dep, w, arrivals, std::move(pool), out);

  loop.arm();
  std::vector<std::vector<Time>> busy_at_start;
  dep->simulator().schedule_at(w.settle, [&] { busy_at_start = core_busy(*dep); });
  if (w.fault) {
    // Replica 0 is the commit, read and snapshot server of the clients
    // homed on partition 0 (Deployment::add_client).
    dep->simulator().schedule_at(w.settle + w.fault_at, [&] {
      Server& victim = dep->server(0, 0);
      if (!victim.engine().is_leader()) {
        out.gate_error = "partition 0's Paxos leader is not replica 0 at the fault";
      }
      out.fault_time = dep->simulator().now();
      victim.crash();
      dep->simulator().schedule_after(w.fault_down, [&victim] { victim.recover(); });
    });
  }

  const auto t_run = Clock::now();
  dep->run_until(w.window_end());
  out.wall_s = seconds_since(t_run);
  // The process's peak so far: the run's setup and window, before the
  // drain and the correctness gate (whose memory is the benchmark's own).
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  out.window = read_counters(*dep, busy_at_start);

  // Drain: no new starts; let everything in flight finish and quiesce.
  loop.close();
  const Time drain_limit = w.window_end() + sim::sec(60);
  while (dep->simulator().now() < drain_limit && !(loop.in_flight() == 0 && quiescent(*dep))) {
    dep->run_until(dep->simulator().now() + sim::msec(250));
  }
  out.events_final = dep->simulator().events_processed();
  out.net_final = dep->network().stats();

  if (out.gate_error.empty()) {  // else the fault already failed the run
    if (loop.in_flight() != 0 || !quiescent(*dep)) {
      out.gate_error = "not quiescent 60 s (simulated) after the window: " +
                       std::to_string(loop.in_flight()) + " transactions in flight";
    } else if (gate) {
      out.gate_error = check_correctness(*dep, arrivals, loop, out);
    }
  }

  if (traced) {
    tracer.set_enabled(false);
    out.breakdown = sdur::trace::build_breakdown(tracer);
    out.trace_records = tracer.records_appended();
    out.trace_dropped = tracer.records_dropped();
    if (out.gate_error.empty() && out.trace_dropped != 0) {
      out.gate_error = "trace ring dropped " + std::to_string(out.trace_dropped) + " records";
    }
  }
  dep.reset();
  tracer.reset();
  return out;
}

double time_setup(const WorkloadSpec& w) {
  const auto t0 = Clock::now();
  ClientPool pool;
  const std::unique_ptr<Deployment> dep = set_up(w, pool);
  return seconds_since(t0);
}

std::string compare_simulations(const RunOutput& a, const RunOutput& b) {
  if (a.txs != b.txs) return "per-transaction outcomes or times differ";
  if (a.read_us != b.read_us || a.commit_us != b.commit_us || a.snapshot_us != b.snapshot_us) {
    return "client-call latencies differ";
  }
  if (a.window.events != b.window.events || a.events_final != b.events_final) {
    return "simulator event counts differ";
  }
  if (!(a.window.net == b.window.net) || !(a.net_final == b.net_final)) {
    return "message or byte counts differ";
  }
  const auto& sa = a.window.servers;
  const auto& sb = b.window.servers;
  if (sa.delivered != sb.delivered || sa.committed_local != sb.committed_local ||
      sa.committed_global != sb.committed_global || sa.aborted != sb.aborted ||
      sa.spec_aborts != sb.spec_aborts) {
    return "server commit/abort counters differ";
  }
  if (a.backlog != b.backlog || a.fault_time != b.fault_time) return "generator timeline differs";
  return "";
}

}  // namespace perfbench

#include "gen.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "pdur/core_partitioner.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace perfbench {

namespace sim = sdur::sim;
using Kind = sdur::DeploymentSpec::Kind;

Time WorkloadSpec::slo(TxClass c) const {
  switch (c) {
    case TxClass::kReadOnly:
      return slo_ro;
    case TxClass::kLocal:
      return slo_local;
    case TxClass::kGlobal:
      return slo_global;
  }
  return 0;
}

namespace {

// WAN1, 2 partitions, the geo techniques: Paxos ordering sets local
// latency and the vote round sets global latency.
WorkloadSpec geo_base() {
  WorkloadSpec w;
  w.kind = Kind::kWan1;
  w.partitions = 2;
  w.techniques = "vote-batch,ooo-bypass,speculation";
  w.items_per_partition = 100'000;
  w.ro_share = 0.5;
  w.global_share = 0.1;
  w.ro_keys = 4;
  w.local_keys = 2;
  w.rate_tps = 10'000;
  w.settle = sim::msec(1500);
  w.window = sim::sec(6);
  w.slo_ro = sim::msec(20);
  w.slo_local = sim::msec(20);
  w.slo_global = sim::msec(150);
  w.pool_per_partition = 256;
  w.fault_at = sim::sec(1);
  return w;
}

std::vector<WorkloadSpec> build_workloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec geo = geo_base();
  geo.name = "geo";
  out.push_back(geo);

  // The abort and rollback path: hot keys make speculations roll back.
  WorkloadSpec hot = geo_base();
  hot.name = "geo-hot";
  hot.items_per_partition = 10'000;
  hot.zipf_theta = 0.99;
  hot.ro_share = 0.1;
  hot.global_share = 0.2;
  hot.rate_tps = 6900;
  out.push_back(hot);

  // Replica CPU, certification, P-DUR lanes and MVStore apply: no WAN and
  // no vote exchange. The global class is the cross-core update.
  WorkloadSpec lan;
  lan.name = "lan-cores";
  lan.kind = Kind::kLan;
  lan.partitions = 1;
  lan.cores = 4;
  lan.items_per_partition = 100'000;
  lan.ro_share = 0.2;
  lan.global_share = 0.2;
  lan.ro_keys = 8;
  lan.local_keys = 8;
  lan.rate_tps = 6000;
  lan.settle = sim::msec(500);
  lan.window = sim::sec(8);
  lan.slo_ro = sim::msec(20);
  lan.slo_local = sim::msec(20);
  lan.slo_global = sim::msec(20);
  lan.pool_per_partition = 512;
  lan.fault_at = sim::msec(500);
  out.push_back(lan);

  // Leader election, log-replay recovery, client commit retries and vote
  // re-requests: replica 0 of partition 0, its leader and the commit
  // contact of the clients homed there, crashes inside the window. At half of geo's rate
  // the backlog built during the outage drains inside the window; at geo's
  // rate it outlasts the window by seconds.
  WorkloadSpec fault = geo_base();
  fault.name = "geo-fault";
  fault.rate_tps = 5000;
  fault.window = sim::sec(8);
  fault.fault = true;
  fault.fault_down = sim::sec(2);
  fault.pool_per_partition = 2048;
  out.push_back(fault);

  return out;
}

/// Draws keys for one transaction: distinct, on the requested partition,
/// optionally pinned to (or away from) one P-DUR core.
class KeyDrawer {
 public:
  KeyDrawer(const WorkloadSpec& w, sdur::util::Rng& rng) : w_(w), rng_(rng), cores_(w.cores) {
    if (w.zipf_theta > 0) zipf_.emplace(w.items_per_partition, w.zipf_theta);
  }

  Key any(PartitionId p) {
    const std::uint64_t rank = zipf_ ? zipf_->sample(rng_) : rng_.below(w_.items_per_partition);
    return p * w_.items_per_partition + rank;
  }

  /// A key of partition p not yet in `taken`; with `core` set, one homed
  /// on that core (`on_core`) or on any other core (!on_core).
  Key fresh(PartitionId p, const std::vector<Key>& taken, std::optional<std::uint32_t> core = {},
            bool on_core = true) {
    for (;;) {
      const Key k = any(p);
      if (std::find(taken.begin(), taken.end(), k) != taken.end()) continue;
      if (core && (cores_.core_of(k) == *core) != on_core) continue;
      return k;
    }
  }

  std::uint32_t core_of(Key k) const { return cores_.core_of(k); }

 private:
  const WorkloadSpec& w_;
  sdur::util::Rng& rng_;
  sdur::pdur::CorePartitioner cores_;
  std::optional<sdur::util::ZipfGenerator> zipf_;
};

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = build_workloads();
  return all;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

sdur::PartitioningPtr make_partitioning(const WorkloadSpec& w) {
  return std::make_shared<sdur::RangePartitioning>(w.partitions, w.items_per_partition);
}

std::vector<Arrival> generate(const WorkloadSpec& w, std::uint64_t seed) {
  sdur::util::Rng rng(seed);
  KeyDrawer keys(w, rng);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(w.rate_tps * static_cast<double>(w.window) / 1e6 * 1.1));

  const double mean_gap_us = 1e6 / w.rate_tps;
  double t = static_cast<double>(w.settle);
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) * mean_gap_us;  // exponential inter-arrival
    const auto due = static_cast<Time>(t);
    if (due >= w.window_end()) break;

    Arrival a;
    a.due = due;
    a.home = static_cast<PartitionId>(rng.below(w.partitions));
    const double pick = rng.uniform();
    a.cls = pick < w.ro_share                     ? TxClass::kReadOnly
            : pick < w.ro_share + w.global_share ? TxClass::kGlobal
                                                 : TxClass::kLocal;
    switch (a.cls) {
      case TxClass::kReadOnly:
        for (std::size_t i = 0; i < w.ro_keys; ++i) {
          const auto p = static_cast<PartitionId>((a.home + i) % w.partitions);
          a.keys.push_back(keys.fresh(p, a.keys));
        }
        break;
      case TxClass::kLocal:
      case TxClass::kGlobal:
        if (a.cls == TxClass::kGlobal && w.partitions > 1) {
          // One local key and one remote key.
          PartitionId other = static_cast<PartitionId>(rng.below(w.partitions - 1));
          if (other >= a.home) ++other;
          a.keys.push_back(keys.fresh(a.home, a.keys));
          a.keys.push_back(keys.fresh(other, a.keys));
        } else if (w.cores > 1) {
          // P-DUR: every key on the first key's core, except one key of a
          // cross-core (global) update.
          a.keys.push_back(keys.fresh(a.home, a.keys));
          const std::uint32_t core = keys.core_of(a.keys.front());
          while (a.keys.size() < w.local_keys) {
            const bool off = a.cls == TxClass::kGlobal && a.keys.size() == 1;
            a.keys.push_back(keys.fresh(a.home, a.keys, core, !off));
          }
        } else {
          while (a.keys.size() < w.local_keys) a.keys.push_back(keys.fresh(a.home, a.keys));
        }
        break;
    }
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace perfbench

// The benchmark's workloads and their generator (`gen`).
//
// A workload fixes a deployment (topology, partitions, techniques, P-DUR
// cores), a data set, a transaction mix and an open-loop Poisson arrival
// rate. generate() turns a workload and a seed into the full arrival
// schedule before the system is built: the system receives only these
// transactions, and the same seed always yields the same schedule.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sdur/deployment.h"

namespace perfbench {

using sdur::Key;
using sdur::PartitionId;
using sdur::sim::Time;

/// Transaction classes. `kGlobal` is the class that pays a coordination
/// round: a multi-partition update (vote exchange) in the WAN workloads, a
/// cross-core update (P-DUR barrier) in the single-partition LAN workload.
enum class TxClass : std::uint8_t { kReadOnly = 0, kLocal = 1, kGlobal = 2 };
inline constexpr std::size_t kClasses = 3;

struct WorkloadSpec {
  std::string name;
  sdur::DeploymentSpec::Kind kind = sdur::DeploymentSpec::Kind::kWan1;
  PartitionId partitions = 2;
  std::string techniques = "baseline";  // sdur::TechniqueConfig grammar
  std::uint32_t cores = 1;              // P-DUR cores per replica

  std::uint64_t items_per_partition = 100'000;
  double zipf_theta = 0;  // 0 = uniform keys
  std::size_t value_size = 64;

  // Mix: shares of read-only and global transactions; the rest are local
  // updates. Every update reads and then writes each of its keys.
  double ro_share = 0;
  double global_share = 0;
  std::size_t ro_keys = 4;     // spread evenly over the partitions
  std::size_t local_keys = 2;  // all on the home partition (one core in P-DUR)

  double rate_tps = 1000;  // offered Poisson arrival rate
  Time settle = 0;         // start() to the first arrival
  Time window = 0;         // arrivals are due in [settle, settle + window)

  // Latency limits per class (slo_miss_ratio).
  Time slo_ro = 0, slo_local = 0, slo_global = 0;

  /// Idle clients created per home partition before the run.
  std::uint32_t pool_per_partition = 64;

  /// Fault: replica 0 of partition 0, its Paxos leader and the contact of
  /// the clients homed there, crashes at settle + fault_at and recovers
  /// fault_down later (a run where it is not the leader then fails).
  /// fault_at also anchors outage_s in the workloads without a fault.
  bool fault = false;
  Time fault_at = 0;
  Time fault_down = 0;

  Time window_end() const { return settle + window; }
  Time slo(TxClass c) const;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

struct Arrival {
  Time due = 0;
  TxClass cls = TxClass::kLocal;
  PartitionId home = 0;
  /// Keys read; an update writes every one of them after reading.
  std::vector<Key> keys;
};

/// The arrival schedule of `w` for `seed`, in due-time order.
std::vector<Arrival> generate(const WorkloadSpec& w, std::uint64_t seed);

/// The partitioning every workload uses: contiguous key ranges of
/// items_per_partition keys.
sdur::PartitioningPtr make_partitioning(const WorkloadSpec& w);

}  // namespace perfbench

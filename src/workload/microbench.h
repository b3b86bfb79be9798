// Microbenchmark (paper Section VI-A).
//
// Each transaction updates two objects (two reads + two writes). A local
// transaction picks both keys in the client's home partition; a global
// transaction (with probability `global_fraction`) updates one local and
// one remote object. Keys are drawn uniformly from `items_per_partition`
// items per partition (the paper uses one million 4-byte items; the default
// here is smaller to keep simulation memory modest — contention is
// negligible either way — and is configurable).
#pragma once

#include "sdur/partitioning.h"
#include "workload/driver.h"
#include "workload/history.h"

namespace sdur::workload {

struct MicroConfig {
  std::uint64_t items_per_partition = 100'000;
  double global_fraction = 0.1;
  std::size_t value_size = 4;

  /// Items read and written per transaction (the paper uses 2: "two read
  /// and two write operations"). A global transaction keeps exactly one
  /// remote item regardless.
  std::size_t ops_per_txn = 2;

  /// Key skew: 0 = uniform (the paper's setting); > 0 draws keys from a
  /// Zipf distribution with this theta, concentrating load on hot items
  /// and raising the certification abort rate (bench/ablation_contention).
  double zipf_theta = 0.0;

  /// P-DUR core-affinity shaping (meaningful when the servers model
  /// pdur.cores > 1; set to the same core count). cores > 1 makes sessions
  /// core-aware: with probability 1 - cross_core_fraction all of a
  /// transaction's home-partition keys are homed on one simulated core
  /// (P-DUR's single-core fast path); otherwise the keys deliberately span
  /// at least two cores, exercising the cross-core barrier. cores == 1
  /// (default) leaves key choice untouched and consumes no extra
  /// randomness — legacy runs are bit-identical.
  std::uint32_t cores = 1;
  double cross_core_fraction = 0.0;

  /// When set, written values encode the writing transaction id and every
  /// commit is reported here — used by the serializability property tests.
  std::function<void(TxId, std::vector<std::pair<Key, TxId>>, std::vector<Key>)> commit_hook{};

  /// Sessions stop starting new transactions once this returns false
  /// (lets tests quiesce the system before inspecting state).
  std::function<bool()> keep_running{};
};

class MicroWorkload final : public Workload {
 public:
  explicit MicroWorkload(MicroConfig cfg) : cfg_(std::move(cfg)) {}

  /// Partitioning matching this workload's key layout.
  static PartitioningPtr make_partitioning(PartitionId partitions, std::uint64_t items_per_partition) {
    return std::make_shared<RangePartitioning>(partitions, items_per_partition);
  }

  void populate(Deployment& dep, util::Rng& rng) override;
  std::unique_ptr<Session> make_session(Client& client, PartitionId home, PartitionId partitions,
                                        util::Rng rng, Recorder& rec) override;

  /// Encodes a value; carries the writer's txid when a commit hook is set.
  static std::string encode_value(TxId writer, std::size_t size);
  /// Recovers the writer txid from a value (0 = initial load).
  static TxId decode_writer(std::string_view value);

 private:
  MicroConfig cfg_;
};

}  // namespace sdur::workload

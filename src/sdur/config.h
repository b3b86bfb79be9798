// SDUR server configuration.
//
// Technique knobs (reordering, delaying, bloom readsets, vote batching,
// out-of-order commit, speculation) live in sdur::TechniqueConfig — the
// single source of technique configuration (see technique_config.h) —
// reached as `cfg.techniques.<knob>`.
#pragma once

#include <cstdint>
#include <vector>

#include "pdur/config.h"
#include "sdur/technique_config.h"
#include "sdur/transaction.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace sdur {

struct ServerConfig {
  PartitionId partition = 0;
  PartitionId num_partitions = 1;

  /// Optional protocol techniques and their sub-knobs.
  TechniqueConfig techniques;

  /// Estimated one-way delay from this partition to every partition
  /// (indexed by partition id; entry for own partition = 0). Used by the
  /// delaying technique; filled in by the deployment builder.
  std::vector<sim::Time> partition_delay_estimate;

  // --- Certification ------------------------------------------------------

  /// How many committed-transaction records are kept for certification
  /// (the prototype's "last K bloom filters"). Transactions with snapshots
  /// older than the window abort.
  std::size_t window_capacity = 50'000;

  // --- Read-only snapshots -------------------------------------------------

  /// Period of the snapshot-counter gossip that builds globally-consistent
  /// snapshots for read-only transactions.
  sim::Time gossip_interval = sim::msec(10);

  // --- Liveness -----------------------------------------------------------

  /// Resend this partition's vote for a stuck pending global (lost votes).
  sim::Time vote_resend_interval = sim::msec(500);

  /// After this long with missing votes, suspect the submitter crashed
  /// before broadcasting to every partition and atomically broadcast an
  /// abort request to the silent partitions (Section IV-F).
  sim::Time missing_vote_timeout = sim::msec(3000);

  /// When a vote-complete global is blocked only by its reorder threshold
  /// and the partition is idle, broadcast no-op ticks at this period to
  /// advance the delivery counter (implementation addition; see DESIGN.md).
  sim::Time tick_interval = sim::msec(2);

  // --- Checkpointing --------------------------------------------------------

  /// Period of application checkpoints: the server serializes its full
  /// deterministic state into the Paxos durable log and truncates the log
  /// below the checkpoint, bounding both log growth and recovery-replay
  /// length. Replicas that fall behind the truncation point receive the
  /// checkpoint via state transfer. 0 disables checkpointing.
  sim::Time checkpoint_interval = 0;

  // --- CPU cost model -------------------------------------------------------

  /// CPU cost charged per delivered transaction (certification +
  /// bookkeeping). Calibrated so a replica group saturates at a few
  /// thousand transactions per second, the ballpark of the paper's EC2
  /// medium instances (single core, 2012).
  sim::Time certification_cost = sim::usec(90);
  /// Additional CPU cost per written item at apply time.
  sim::Time apply_cost_per_write = sim::usec(10);
  /// Base per-message handling cost.
  sim::Time message_service_time = sim::usec(15);

  /// P-DUR multi-core replica model (src/pdur/). pdur.cores > 1 enables
  /// per-core parallel certification/execution; 1 keeps the legacy serial
  /// replica, bit-identical to earlier builds.
  pdur::Config pdur;

  // --- Routing (filled in by the deployment builder) ------------------------

  /// For every partition, the server process ids of its replica group,
  /// ordered so index 0 is the bootstrap Paxos leader.
  std::vector<std::vector<sim::ProcessId>> partition_servers;

  /// For every partition, the replica this server routes reads to (the
  /// nearest replica of that partition). Empty = use partition_servers[p][0].
  std::vector<sim::ProcessId> read_route;
};

/// Former name of ServerConfig's value members; perfbench/src/probes.cpp
/// still spells it, and perfbench is kept unchanged.
using ServerConfigData = ServerConfig;

}  // namespace sdur

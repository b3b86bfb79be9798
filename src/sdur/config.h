// SDUR server configuration.
//
// Technique knobs (reordering, delaying, bloom readsets, vote batching,
// out-of-order commit, speculation) live in sdur::TechniqueConfig — the
// single source of technique configuration (see technique_config.h) —
// reached as `cfg.techniques.<knob>`.
//
// Only settings that some caller varies are fields here. Distances are
// not settings: the delaying technique's estimates and read routing come
// from the server's topology (Server::delay_estimate, read_replica). The
// serial CPU cost model (per-message, per-certification and per-write
// costs) and the gossip, vote-resend and no-op-tick periods are constants
// beside their reader in server.cpp; the P-DUR costs are constants in
// pdur/config.h.
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

  // --- Certification ------------------------------------------------------

  /// How many committed-transaction records are kept for certification
  /// (the prototype's "last K bloom filters"). Transactions with snapshots
  /// older than the window abort.
  std::size_t window_capacity = 50'000;

  // --- Liveness -----------------------------------------------------------

  /// After this long with missing votes, suspect the submitter crashed
  /// before broadcasting to every partition and atomically broadcast an
  /// abort request to the silent partitions (Section IV-F).
  sim::Time missing_vote_timeout = sim::msec(3000);

  // --- Checkpointing --------------------------------------------------------

  /// Period of application checkpoints: the server serializes its full
  /// deterministic state into the Paxos durable log and truncates the log
  /// below the checkpoint, bounding both log growth and recovery-replay
  /// length. Replicas that fall behind the truncation point receive the
  /// checkpoint via state transfer. 0 disables checkpointing.
  sim::Time checkpoint_interval = 0;

  /// P-DUR multi-core replica model (src/pdur/). pdur.cores > 1 enables
  /// per-core parallel certification/execution; 1 keeps the legacy serial
  /// replica, bit-identical to earlier builds.
  pdur::Config pdur;

  // --- Routing (filled in by the deployment builder) ------------------------

  /// For every partition, the server process ids of its replica group,
  /// ordered so index 0 is the bootstrap Paxos leader.
  std::vector<std::vector<sim::ProcessId>> partition_servers;
};

/// Former name of ServerConfig's value members; perfbench/src/probes.cpp
/// still spells it, and perfbench is kept unchanged.
using ServerConfigData = ServerConfig;

}  // namespace sdur

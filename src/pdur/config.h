// P-DUR (Parallel Deferred Update Replication) configuration.
//
// The multi-core replica model (arXiv:1312.0742): how many simulated cores
// a replica certifies/executes on (the one knob), and the fixed CPU cost
// model of the intra-replica pipeline. See src/pdur/ and DESIGN.md
// ("Multi-core replicas (P-DUR)").
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace sdur::pdur {

/// Serial ingress cost per message when the P-DUR pipeline is active.
/// The legacy model charges the whole per-message handling cost
/// (kMessageServiceTime in sdur/server.cpp) on the single CPU; P-DUR splits it
/// into this cheap network/dispatch slice on core 0 plus the actual work
/// charged on the owning core (reads: kReadCost; deliveries:
/// certification/apply cost).
inline constexpr sim::Time kIngressCost = sim::usec(5);

/// Per-delivery serial dispatch cost on core 0 (decode + fan-out to home
/// cores). This is P-DUR's residual serial fraction; it bounds the maximum
/// speedup a la Amdahl.
inline constexpr sim::Time kDispatchCost = sim::usec(3);

/// Extra cost of the deterministic cross-core vote/barrier exchange paid by
/// every transaction whose keys span more than one core (shared-memory
/// synchronization in the paper's prototype).
inline constexpr sim::Time kCrossCoreSyncCost = sim::usec(8);

/// Cost of serving one multiversion read on the key's owning core.
inline constexpr sim::Time kReadCost = sim::usec(10);

struct Config {
  /// Number of simulated certification/execution cores per replica.
  /// 1 (the default) keeps the legacy serial replica model byte-for-byte:
  /// all work runs on the process's single CPU. >= 2 activates the P-DUR
  /// pipeline: keys are sub-partitioned across cores, delivered
  /// transactions fan out to their home cores, and transactions spanning
  /// cores pay a deterministic vote/barrier step.
  std::uint32_t cores = 1;
};

}  // namespace sdur::pdur

// The chaos recipe shared by the technique tests (vote batching, the
// out-of-order local commit, speculation, all of them at once): message
// loss, follower churn with recovery, short-period checkpoints and 40%
// globals over 3 partitions, then a heal and a long drain. The
// techniques' *OffMatchesLegacyGolden pins digest its default-off run.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sdur/deployment.h"
#include "sdur/technique_config.h"
#include "util/bytes.h"

namespace sdur::chaos {

struct ChaosOut {
  /// Digest of every replica's final state, the network counters and the
  /// simulator's event count and clock.
  std::uint64_t digest = 0;
  std::uint64_t committed = 0;
  Server::Stats stats;
  sim::NetworkStats net;
  /// Every partition's replicas ended byte-identical (replicas_agree).
  bool agree = false;
  std::size_t pending_total = 0;
  /// Speculative versions left in the stores.
  std::size_t spec_outstanding = 0;
};

std::uint64_t digest_writer(const util::Writer& w);

/// True when every replica of every partition ended at identical
/// (sc, certified, store) state — the convergence bar for chaos runs.
bool replicas_agree(Deployment& dep);

/// Runs the recipe with `techniques` on P-DUR replicas of `cores` cores.
/// checkpoint_interval is short enough that recovering replicas install
/// checkpoints and state transfers while the techniques are in flight.
ChaosOut run_chaos(const TechniqueConfig& techniques, std::uint32_t cores = 1);

}  // namespace sdur::chaos

// Host-cost probes: short timed loops over the public calls of one layer
// at a time, fed the workload's own transactions. Each probe reports host
// nanoseconds per call; main.cpp multiplies them by the calls per
// transaction counted in the measured run (the host decomposition).
#pragma once

#include <vector>

#include "gen.h"

namespace perfbench {

struct ProbeResults {
  double sim_ns_per_event = 0;       // sim: event loop + network fabric
  double paxos_ns_per_value = 0;     // paxos: per value delivered per replica, sim cost removed
  double certifier_ns_per_cert = 0;  // Certifier process + resolve (P-DUR lanes when cores > 1)
  double mvstore_ns_per_get = 0;
  double mvstore_ns_per_put = 0;
  double mvstore_ns_per_load = 0;
  double codec_ns_per_parttx = 0;    // PartTx encode + decode
};

/// Runs every probe over the partition-0 projections of `arrivals`.
/// `window_depth` is the snapshot age, in versions, certified transactions
/// carry in the measured run.
ProbeResults run_probes(const WorkloadSpec& w, const std::vector<Arrival>& arrivals,
                        std::int64_t window_depth);

}  // namespace perfbench

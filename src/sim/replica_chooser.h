// Replica choice: which member of a replica group a process contacts.
//
// One rule serves every hop that picks a replica (DESIGN.md "Failover"):
// the SDUR client picking a partition's replica for a request, and a
// server picking the replica of a remote partition it forwards to.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "sim/topology.h"

namespace sdur::sim {

/// One per process: a miss count per replica, cleared by any message from
/// that replica. A request to a partition goes to the replica of its
/// preference-ordered list with the fewest misses, the first on ties.
class ReplicaChooser {
 public:
  /// Index in `replicas` of the replica to contact. With `silence` > 0, a
  /// replica heard from last more than `silence` before `now` ranks behind
  /// every replica heard from since, whatever their misses.
  std::size_t pick(const std::vector<ProcessId>& replicas, Time now = 0,
                   Time silence = 0) const {
    auto rank = [&](ProcessId pid) {
      const auto it = peers_.find(pid);
      const Peer p = it == peers_.end() ? Peer{} : it->second;
      return std::pair{silence > 0 && now - p.heard_at > silence, p.misses};
    };
    std::size_t best = 0;
    for (std::size_t i = 1; i < replicas.size(); ++i) {
      if (rank(replicas[i]) < rank(replicas[best])) best = i;
    }
    return best;
  }
  /// When a message from `pid` last arrived (0: never).
  Time heard_at(ProcessId pid) const {
    const auto it = peers_.find(pid);
    return it == peers_.end() ? 0 : it->second.heard_at;
  }
  /// `pid` left a request unanswered.
  void miss(ProcessId pid) { ++peers_[pid].misses; }
  /// A message from `pid` arrived at `now`.
  void heard(ProcessId pid, Time now) { peers_[pid] = Peer{0, now}; }

 private:
  struct Peer {
    std::uint32_t misses = 0;
    Time heard_at = 0;
  };
  std::unordered_map<ProcessId, Peer> peers_;
};

}  // namespace sdur::sim

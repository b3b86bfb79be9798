// Simulated network with quasi-reliable links and fault injection.
//
// Matches the paper's link model (Section II-A): if both sender and
// receiver are correct, every message sent is eventually received. There is
// no duplication or corruption by default; message loss, process isolation
// and network partitions can be injected for protocol tests (Paxos must
// stay safe under all of them).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/message.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "util/counters.h"
#include "util/rng.h"

namespace sdur::sim {

class Process;

/// Per-message-type counters as a flat fixed array. Message tags live in
/// 0–99 (sim/message.h); indexing replaces the hash-map lookups that used
/// to sit on the per-send hot path. Out-of-range tags share the last
/// bucket rather than growing storage.
class PerTypeCounters {
 public:
  static constexpr std::size_t kBuckets = 128;

  std::uint64_t& operator[](MsgType t) { return v_[index(t)]; }
  std::uint64_t at(MsgType t) const { return v_[index(t)]; }

  bool operator==(const PerTypeCounters&) const = default;

 private:
  static std::size_t index(MsgType t) {
    return t < kBuckets ? t : kBuckets - 1;
  }
  std::array<std::uint64_t, kBuckets> v_{};
};

#define SDUR_NETWORK_COUNTER_LIST(X) \
  X(messages_sent)                   \
  X(messages_delivered)              \
  X(messages_dropped)                \
  X(bytes_sent)

/// The scalar counters are listed once in SDUR_NETWORK_COUNTER_LIST; the
/// per-type arrays stay outside it, so `+=` and `for_each` skip them.
struct NetworkStats {
  SDUR_COUNTERS(NetworkStats, SDUR_NETWORK_COUNTER_LIST)
  PerTypeCounters per_type_count;
  PerTypeCounters per_type_bytes;

  bool operator==(const NetworkStats&) const = default;
};

class Network {
 public:
  Network(Simulator& sim, Topology topology, std::uint64_t seed = 1);

  /// Registers a process endpoint at the given location.
  void attach(Process* p, Location loc);
  void detach(ProcessId pid);

  /// Sends `m` from `from` to `to` with the topology's delay + jitter.
  /// Drops silently if either endpoint is crashed/isolated/blocked or the
  /// loss dice say so.
  void send(ProcessId from, ProcessId to, Message m);

  const Topology& topology() const { return topology_; }
  Simulator& simulator() { return sim_; }

  Process* process(ProcessId pid) const;
  std::vector<ProcessId> process_ids() const;

  // --- Fault injection ---------------------------------------------------

  /// Uniform probability that any message is dropped in flight.
  void set_loss_rate(double p) { loss_rate_ = p; }

  /// Cuts both directions between `a` and `b`.
  void block_link(ProcessId a, ProcessId b);
  void unblock_link(ProcessId a, ProcessId b);

  /// Cuts a process off from everyone (it stays alive, e.g. to model a
  /// network partition of a single node).
  void isolate(ProcessId pid) { isolated_.insert(pid); }
  void heal(ProcessId pid) { isolated_.erase(pid); }
  void heal_all();

  /// Partitions the network into {group} vs. the rest.
  void partition(const std::vector<ProcessId>& group);

  const NetworkStats& stats() const { return stats_; }
  void reset_stats() { stats_ = NetworkStats{}; }

 private:
  static std::uint64_t link_key(ProcessId a, ProcessId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  Simulator& sim_;
  Topology topology_;
  util::Rng rng_;
  double loss_rate_ = 0.0;
  /// Indexed by pid (ids are small and dense; this lookup sits on the
  /// per-delivery hot path). nullptr = not attached.
  std::vector<Process*> processes_;
  std::unordered_set<std::uint64_t> blocked_links_;
  std::unordered_set<ProcessId> isolated_;
  NetworkStats stats_;
};

}  // namespace sdur::sim

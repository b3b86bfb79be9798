// Core Paxos types.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/time.h"
#include "sim/topology.h"
#include "util/bytes.h"

namespace sdur::paxos {

using sim::ProcessId;
using sim::Time;
/// A value is an immutable slice of the buffer that carried it (util::
/// SharedBytes): decoded from a message, it shares that message's bytes.
using Value = util::SharedBytes;

/// Paxos log position.
using InstanceId = std::uint64_t;

/// Ballot number: (round << 8) | proposer-index. Higher rounds dominate;
/// the low byte makes ballots unique per proposer.
struct Ballot {
  std::uint64_t n = 0;

  static Ballot make(std::uint64_t round, std::uint32_t proposer_index) {
    return Ballot{(round << 8) | (proposer_index & 0xFF)};
  }
  std::uint64_t round() const { return n >> 8; }
  std::uint32_t proposer_index() const { return static_cast<std::uint32_t>(n & 0xFF); }
  bool valid() const { return n != 0; }

  static auto fields(auto& b) { return std::tie(b.n); }
  auto operator<=>(const Ballot&) const = default;
};

/// Static configuration of one Paxos group (one database partition). The
/// distances between members are not configuration: the engine reads them
/// from its endpoint's topology.
struct GroupConfig {
  /// Process ids of the group members, in index order. The proposer index
  /// of a ballot indexes into this vector. (The `{}` lets a designated
  /// initializer such as DeploymentSpec's template leave it out cleanly.)
  std::vector<ProcessId> members{};
  std::uint32_t self_index = 0;

  /// Latency of a synchronous write to the durable log (Berkeley DB in the
  /// paper's prototype); responses that require persistence are delayed by
  /// this much.
  Time log_write_latency = sim::usec(500);

  /// Batching and pipelining at the leader.
  std::size_t max_batch = 64;
  std::size_t pipeline_window = 64;

  std::size_t quorum() const { return members.size() / 2 + 1; }
};

}  // namespace sdur::paxos

// Core Paxos types.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/time.h"
#include "sim/topology.h"
#include "util/bytes.h"

namespace sdur::paxos {

using sim::ProcessId;
using sim::Time;
using Value = util::Bytes;

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

/// Static configuration of one Paxos group (one database partition).
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

  /// One-way delay between members before jitter (member_delays[i][j]
  /// from member i to member j), and the jitter that scales every delay by
  /// U[1, 1 + jitter]. The deployment builder fills both in from its
  /// topology, like `members`; the engine derives its election timing and
  /// its candidate order from them. Left empty, as in groups built by
  /// hand, the election timeout stays at a fixed 600 ms and candidates
  /// rank by index after the last leader.
  std::vector<std::vector<Time>> member_delays{};
  double jitter = 0;

  /// Base delay from member i to member j (0 when not known).
  Time delay(std::uint32_t i, std::uint32_t j) const {
    return i < member_delays.size() && j < member_delays[i].size() ? member_delays[i][j] : 0;
  }
  /// Worst one-way delay between two members, jitter included.
  Time member_delay() const {
    Time worst = 0;
    for (const auto& row : member_delays) {
      for (Time t : row) worst = std::max(worst, t);
    }
    return static_cast<Time>(static_cast<double>(worst) * (1.0 + jitter));
  }

  std::size_t quorum() const { return members.size() / 2 + 1; }
};

}  // namespace sdur::paxos

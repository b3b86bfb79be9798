// Deployment builder: wires a full SDUR system (simulator, network,
// topology, servers, clients) for the paper's three deployments.
//
//  - LAN: every replica in one region (the DSN'12 scalability setting).
//  - WAN 1 (Section IV-B): each partition keeps a majority of its replicas
//    in its home region (different availability zones) and one replica in
//    the other region to serve nearby reads. Local transactions terminate
//    in ~4 delta; globals pay 4 delta + 2 Delta.
//  - WAN 2: each partition spreads its replicas across three regions, so
//    it survives the loss of a whole region; every Paxos quorum crosses
//    regions (locals ~2 delta + 2 Delta, globals ~3 delta + 3 Delta).
//
// Partition p's home region alternates EU / US-EAST (the paper's two
// partitions have EU and US-EAST homes); clients are placed in their home
// partition's region and reach every partition through its replicas in
// nearest-first order (the home partition's nearest is its leader).
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "sdur/client.h"
#include "sdur/server.h"
#include "sim/simulator.h"

namespace sdur {

struct DeploymentSpec {
  enum class Kind { kLan, kWan1, kWan2 };

  Kind kind = Kind::kLan;
  PartitionId partitions = 2;
  std::uint32_t replicas = 3;
  PartitioningPtr partitioning;  // required

  /// Template for per-server settings (techniques, windows, periods);
  /// the builder fills in partition ids and routing tables.
  ServerConfig server;

  /// Template for per-client settings (commit timeout and retry
  /// interval); the builder fills in the partitioning, home and routing.
  ClientConfig client;

  /// Template for every Paxos group (log write latency, batching,
  /// pipelining); the builder fills in members and self index. The 4 ms
  /// log write models a BDB-style synchronous write.
  paxos::GroupConfig paxos{.log_write_latency = sim::msec(4)};

  double jitter = 0.05;
  std::uint64_t seed = 1;
};

class Deployment {
 public:
  explicit Deployment(DeploymentSpec spec);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return *net_; }
  const DeploymentSpec& spec() const { return spec_; }
  PartitioningPtr partitioning() const { return spec_.partitioning; }

  Server& server(PartitionId p, std::uint32_t replica);
  std::vector<Server*> servers();
  PartitionId partition_count() const { return spec_.partitions; }
  std::uint32_t replica_count() const { return spec_.replicas; }

  /// Creates a client homed on partition `home` (placed in that
  /// partition's region, every partition's replicas listed nearest first).
  Client& add_client(PartitionId home);
  std::vector<Client*> clients();

  /// Loads a key/value at version 0 into the key's partition: into the
  /// partition's one initial image, which every replica's store reads
  /// through (storage/mvstore.h, LAYERS). Throws std::logic_error after
  /// start(), when the image is shared and no longer written.
  void load(Key k, std::string_view v);

  /// Hands each replica its partition's image, then starts all servers
  /// (Paxos leader election, gossip, liveness timers).
  void start();

  /// Runs the simulation until time t.
  void run_until(sim::Time t) { sim_.run_until(t); }

  /// Home region of a partition under the current deployment kind.
  std::uint16_t home_region(PartitionId p) const;

  /// Aggregated server stats.
  Server::Stats total_stats() const;

  /// Keeps an arbitrary object alive for the deployment's lifetime. Used
  /// by the workload driver: client sessions schedule continuations in the
  /// simulator, so they must outlive every event that references them.
  void retain(std::shared_ptr<void> obj) { retained_.push_back(std::move(obj)); }

 private:
  sim::Location server_location(PartitionId p, std::uint32_t replica) const;
  sim::ProcessId server_pid(PartitionId p, std::uint32_t replica) const {
    return 1 + p * spec_.replicas + replica;
  }

  DeploymentSpec spec_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  /// Every partition's server pids, replica 0 (the bootstrap leader) first.
  std::vector<std::vector<sim::ProcessId>> partition_servers_;
  std::vector<std::unique_ptr<Server>> servers_;
  /// One initial image per partition, filled by load() until start().
  std::vector<std::shared_ptr<storage::MVStore>> images_;
  bool started_ = false;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::shared_ptr<void>> retained_;
  sim::ProcessId next_client_pid_ = 10'000;
};

}  // namespace sdur

#include "sdur/deployment.h"

#include <stdexcept>

namespace sdur {

namespace {
sim::Topology topology_for(const DeploymentSpec& spec) {
  sim::Topology t =
      spec.kind == DeploymentSpec::Kind::kLan ? sim::Topology::lan() : sim::Topology::ec2_three_regions();
  t.set_jitter(spec.jitter);
  return t;
}
}  // namespace

Deployment::Deployment(DeploymentSpec spec) : spec_(std::move(spec)) {
  if (!spec_.partitioning) throw std::invalid_argument("DeploymentSpec requires a partitioning");
  if (spec_.partitioning->count() != spec_.partitions) {
    throw std::invalid_argument("partitioning count != deployment partitions");
  }
  net_ = std::make_unique<sim::Network>(sim_, topology_for(spec_), spec_.seed);

  partition_servers_.resize(spec_.partitions);
  for (PartitionId p = 0; p < spec_.partitions; ++p) {
    images_.push_back(std::make_shared<storage::MVStore>());
    for (std::uint32_t r = 0; r < spec_.replicas; ++r) {
      partition_servers_[p].push_back(server_pid(p, r));
    }
  }

  for (PartitionId p = 0; p < spec_.partitions; ++p) {
    for (std::uint32_t r = 0; r < spec_.replicas; ++r) {
      ServerConfig cfg = spec_.server;
      cfg.partition = p;
      cfg.num_partitions = spec_.partitions;
      cfg.partition_servers = partition_servers_;
      paxos::GroupConfig g = spec_.paxos;
      g.members = partition_servers_[p];
      g.self_index = r;
      servers_.push_back(std::make_unique<Server>(*net_, server_pid(p, r), server_location(p, r),
                                                  std::move(cfg), std::move(g),
                                                  spec_.partitioning));
    }
  }
}

Deployment::~Deployment() {
  // Clients reference the network in their destructor (detach); destroy
  // them before the network. unique_ptr members are destroyed in reverse
  // declaration order, which already handles this; nothing else to do.
}

std::uint16_t Deployment::home_region(PartitionId p) const {
  if (spec_.kind == DeploymentSpec::Kind::kLan) return 0;
  return p % 2 == 0 ? sim::kEU : sim::kUSEast;
}

sim::Location Deployment::server_location(PartitionId p, std::uint32_t replica) const {
  switch (spec_.kind) {
    case DeploymentSpec::Kind::kLan:
      // One region, one availability zone per replica.
      return {0, static_cast<std::uint16_t>(replica)};
    case DeploymentSpec::Kind::kWan1: {
      // Majority of replicas in the home region (distinct availability
      // zones); the rest in the other home region, serving nearby reads.
      const std::uint16_t home = home_region(p);
      const std::uint16_t away = home == sim::kEU ? sim::kUSEast : sim::kEU;
      const std::uint32_t majority = spec_.replicas / 2 + 1;
      if (replica < majority) return {home, static_cast<std::uint16_t>(replica)};
      return {away, static_cast<std::uint16_t>(replica)};
    }
    case DeploymentSpec::Kind::kWan2: {
      // One replica per region, leader (replica 0) in the home region.
      const std::uint16_t home = home_region(p);
      const auto region = static_cast<std::uint16_t>((home + replica) % 3);
      return {region, static_cast<std::uint16_t>(p)};
    }
  }
  return {0, 0};
}

Server& Deployment::server(PartitionId p, std::uint32_t replica) {
  return *servers_.at(p * spec_.replicas + replica);
}

std::vector<Server*> Deployment::servers() {
  std::vector<Server*> out;
  out.reserve(servers_.size());
  for (auto& s : servers_) out.push_back(s.get());
  return out;
}

Client& Deployment::add_client(PartitionId home) {
  const sim::Location loc{home_region(home), 0};
  ClientConfig cfg = spec_.client;
  cfg.partitioning = spec_.partitioning;
  cfg.home = home;
  cfg.servers.clear();
  // The home partition's nearest replica is its leader, replica 0.
  for (PartitionId q = 0; q < spec_.partitions; ++q) {
    cfg.servers.push_back(net_->topology().nearest_first(loc.region, partition_servers_[q]));
  }
  clients_.push_back(std::make_unique<Client>(*net_, next_client_pid_++, loc, std::move(cfg)));
  return *clients_.back();
}

std::vector<Client*> Deployment::clients() {
  std::vector<Client*> out;
  out.reserve(clients_.size());
  for (auto& c : clients_) out.push_back(c.get());
  return out;
}

void Deployment::load(Key k, std::string_view v) {
  if (started_) throw std::logic_error("Deployment::load after start()");
  images_.at(spec_.partitioning->partition_of(k))->load(k, v);
}

void Deployment::start() {
  started_ = true;
  for (PartitionId p = 0; p < spec_.partitions; ++p) {
    for (std::uint32_t r = 0; r < spec_.replicas; ++r) server(p, r).start(images_[p]);
  }
}

Server::Stats Deployment::total_stats() const {
  Server::Stats total;
  for (const auto& s : servers_) total += s->stats();
  return total;
}

}  // namespace sdur

#include "sim/topology.h"

#include <algorithm>
#include <stdexcept>

namespace sdur::sim {

Topology::Topology() : intra_dc_(usec(250)), intra_region_(msec(1)) {
  inter_region_ = {{0}};
}

void Topology::set_regions(std::size_t n, std::vector<std::vector<Time>> one_way) {
  if (one_way.size() != n) throw std::invalid_argument("latency matrix size mismatch");
  for (const auto& row : one_way) {
    if (row.size() != n) throw std::invalid_argument("latency matrix row size mismatch");
  }
  inter_region_ = std::move(one_way);
}

Topology Topology::ec2_three_regions() {
  Topology t;
  const Time eu_use = msec(45);   // EU <-> US-EAST, ~90 ms RTT
  const Time use_usw = msec(50);  // US-EAST <-> US-WEST, ~100 ms RTT
  const Time eu_usw = msec(85);   // EU <-> US-WEST, ~170 ms RTT
  t.set_regions(3, {{0, eu_use, eu_usw}, {eu_use, 0, use_usw}, {eu_usw, use_usw, 0}});
  return t;
}

Topology Topology::lan() {
  Topology t;
  t.set_regions(1, {{0}});
  return t;
}

void Topology::place(ProcessId pid, Location loc) {
  if (pid >= locations_.size()) locations_.resize(pid + 1, kUnplaced);
  locations_[pid] = loc;
}

Location Topology::location(ProcessId pid) const {
  if (pid >= locations_.size() || locations_[pid] == kUnplaced) {
    throw std::out_of_range("process not placed in topology");
  }
  return locations_[pid];
}

Time Topology::region_delay(std::uint16_t from, std::uint16_t to) const {
  if (from == to) return intra_region_;
  if (from >= inter_region_.size() || to >= inter_region_.size()) {
    throw std::out_of_range("region out of range");
  }
  return inter_region_[from][to];
}

Time Topology::distance(ProcessId from, ProcessId to) const {
  if (from == to) return 0;
  return region_delay(location(from).region, location(to).region);
}

std::vector<ProcessId> Topology::nearest_first(std::uint16_t region,
                                               std::vector<ProcessId> pids) const {
  std::ranges::stable_sort(
      pids, {}, [&](ProcessId pid) { return region_delay(region, location(pid).region); });
  return pids;
}

Time Topology::base_delay(ProcessId from, ProcessId to) const {
  if (from == to) return usec(1);  // loopback
  const Location a = location(from);
  const Location b = location(to);
  if (a.region != b.region) return inter_region_[a.region][b.region];
  if (a.datacenter != b.datacenter) return intra_region_;
  return intra_dc_;
}

Time Topology::delay(ProcessId from, ProcessId to, util::Rng& rng) const {
  const Time base = base_delay(from, to);
  if (jitter_ <= 0) return base;
  return static_cast<Time>(static_cast<double>(base) * (1.0 + rng.uniform() * jitter_));
}

}  // namespace sdur::sim

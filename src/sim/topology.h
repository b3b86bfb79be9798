// Geographic topology and latency model.
//
// Mirrors the paper's system model (Section IV-A): processes live in
// datacenters, datacenters live in regions; processes in the same
// datacenter or region communicate with low latency (delta), processes in
// different regions pay the inter-region delay (Delta >> delta).
//
// Inter-region one-way delays are configured as a matrix. The presets
// reproduce the EC2 latencies measured in the paper (Section VI-A):
// ~90 ms RTT EU <-> US-EAST, ~100 ms US-EAST <-> US-WEST, ~170 ms
// EU <-> US-WEST.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "util/rng.h"

namespace sdur::sim {

using ProcessId = std::uint32_t;

struct Location {
  std::uint16_t region = 0;
  std::uint16_t datacenter = 0;

  bool operator==(const Location&) const = default;
};

/// Region identifiers for the paper's three-region EC2 setup.
enum Region : std::uint16_t { kEU = 0, kUSEast = 1, kUSWest = 2 };

class Topology {
 public:
  Topology();

  /// Configures `n` regions with the given one-way delay matrix
  /// (matrix[i][j] = one-way delay region i -> region j; diagonal ignored).
  void set_regions(std::size_t n, std::vector<std::vector<Time>> one_way);

  /// Paper's three-region setup: EU, US-EAST, US-WEST with one-way delays
  /// of 45 ms, 50 ms and 85 ms respectively (half the measured RTTs).
  static Topology ec2_three_regions();

  /// Single-region topology for LAN experiments.
  static Topology lan();

  void set_intra_datacenter(Time t) { intra_dc_ = t; }
  void set_intra_region(Time t) { intra_region_ = t; }
  /// Multiplicative jitter: delays are scaled by U[1, 1+jitter].
  void set_jitter(double jitter) { jitter_ = jitter; }
  double jitter() const { return jitter_; }

  void place(ProcessId pid, Location loc);
  Location location(ProcessId pid) const;

  /// Base one-way delay between two placed processes (before jitter).
  Time base_delay(ProcessId from, ProcessId to) const;

  /// One-way delay with jitter drawn from `rng`.
  Time delay(ProcessId from, ProcessId to, util::Rng& rng) const;

  /// Base one-way delay between two regions (delta if equal).
  Time region_delay(std::uint16_t from, std::uint16_t to) const;

  /// Distance between two placed processes as the system model states it
  /// (Section IV-A): 0 to itself, delta within a region, Delta across
  /// regions. Protocol timeouts derive from it; base_delay() is finer.
  Time distance(ProcessId from, ProcessId to) const;

  /// `pids`, placed processes, nearest to `region` first; ties keep their
  /// order.
  std::vector<ProcessId> nearest_first(std::uint16_t region, std::vector<ProcessId> pids) const;

  std::size_t region_count() const { return inter_region_.size(); }
  Time intra_region() const { return intra_region_; }

 private:
  /// Sentinel marking a pid with no placement (process ids are small and
  /// dense, so placements live in a flat pid-indexed vector — location()
  /// sits on the per-message delay path).
  static constexpr Location kUnplaced{0xFFFF, 0xFFFF};

  Time intra_dc_;
  Time intra_region_;
  double jitter_ = 0.05;
  std::vector<std::vector<Time>> inter_region_;
  std::vector<Location> locations_;  // indexed by pid; kUnplaced = absent
};

}  // namespace sdur::sim

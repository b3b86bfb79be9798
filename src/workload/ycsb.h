// YCSB-style workloads (Cooper et al., SoCC'10), adapted to SDUR.
//
// The paper evaluates with its own microbenchmark and a social network;
// YCSB is the de-facto standard for key-value stores, so downstream users
// get the familiar mixes here as well:
//
//   A  update-heavy   50% read / 50% read-modify-write
//   B  read-mostly    95% read /  5% read-modify-write
//   C  read-only     100% read
//
// Reads are single-key snapshot transactions (committed locally, never
// abort); updates are single-key read-modify-write transactions that go
// through certification. Keys are drawn Zipf(theta) over the whole
// keyspace, so a fraction of operations crosses partitions implicitly
// (multi-partition reads route transparently; updates touch one key, so
// they are always single-partition — SDUR's sweet spot).
#pragma once

#include "sdur/partitioning.h"
#include "workload/driver.h"

namespace sdur::workload {

struct YcsbConfig {
  enum class Mix { kA, kB, kC };

  Mix mix = Mix::kA;
  std::uint64_t records_per_partition = 100'000;
  std::size_t value_size = 100;  // YCSB default field size is ~100B
  double zipf_theta = 0.99;      // YCSB default request distribution

  std::function<bool()> keep_running{};

  double update_fraction() const {
    switch (mix) {
      case Mix::kA:
        return 0.5;
      case Mix::kB:
        return 0.05;
      case Mix::kC:
        return 0.0;
    }
    return 0;
  }
  static const char* mix_name(Mix m) {
    switch (m) {
      case Mix::kA:
        return "A (50/50)";
      case Mix::kB:
        return "B (95/5)";
      case Mix::kC:
        return "C (read-only)";
    }
    return "?";
  }
};

class YcsbWorkload final : public Workload {
 public:
  explicit YcsbWorkload(YcsbConfig cfg) : cfg_(std::move(cfg)) {}

  static PartitioningPtr make_partitioning(PartitionId partitions,
                                           std::uint64_t records_per_partition) {
    return std::make_shared<RangePartitioning>(partitions, records_per_partition);
  }

  void populate(Deployment& dep, util::Rng& rng) override;
  std::unique_ptr<Session> make_session(Client& client, PartitionId home, PartitionId partitions,
                                        util::Rng rng, Recorder& rec) override;

 private:
  YcsbConfig cfg_;
};

}  // namespace sdur::workload

// DSN'12 scalability experiment: local-transaction throughput as the
// number of partitions grows (the headline property of the base SDUR
// paper: "local transactions scale linearly with the number of
// partitions, under certain workloads").
//
// LAN deployment, partitions in {1, 2, 4, 8}, with a local-only mix and a
// 10%-globals mix. Expected shape: near-linear growth at 0% globals,
// sublinear growth at 10% (global certification serializes across
// partitions).
#include "common.h"

using namespace sdur;
using namespace sdur::bench;

int main() {
  auto& rep = report_open("fig7_scalability");
  print_header("DSN'12 scalability — local throughput vs. partitions (LAN)");

  for (double mix : {0.0, 0.10}) {
    std::printf("\n%2.0f%% global transactions:\n", mix * 100);
    double base_tput = 0;
    for (PartitionId partitions : {1u, 2u, 4u, 8u}) {
      if (partitions == 1 && mix > 0) {
        std::printf("  %u partition(s): (skipped: no globals possible)\n", partitions);
        continue;
      }
      Scenario s = bench_scenario(DeploymentSpec::Kind::kLan);
      s.spec.partitions = partitions;
      s.micro = {.items_per_partition = 20'000, .global_fraction = mix};
      const std::uint32_t clients = find_clients(s, 16, 4096);
      s.run.clients = clients;
      const RunResult r = run_bench(s);
      const double tput = r.throughput();
      if (base_tput == 0) base_tput = tput / partitions;
      std::printf(
          "  %u partition(s), %4u clients: total %8.0f tps (%.2fx per-partition baseline), "
          "local p99 %.1f ms\n",
          partitions, clients, tput, tput / (base_tput * partitions),
          static_cast<double>(r.p99("local")) / 1000.0);
      rep.row()
          .num("partitions", partitions)
          .num("global_fraction", mix)
          .num("clients", clients)
          .num("tput_tps", tput)
          .num("scaling_vs_baseline", tput / (base_tput * partitions))
          .num("p99_local_ms", static_cast<double>(r.p99("local")) / 1000.0);
    }
  }
  return 0;
}

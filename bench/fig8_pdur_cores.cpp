// P-DUR core-scaling experiment ("Figure 8"; arXiv:1312.0742, Section V):
// local-transaction throughput as the number of simulated cores per
// replica grows, for different fractions of cross-core transactions.
//
// LAN deployment, a single partition (the experiment isolates the
// intra-replica parallelism; partition scaling is fig7), cores in
// {1, 2, 4, 8}. Expected shape: near-linear growth when every transaction
// is homed on one core (0% cross-core), degrading gracefully as the
// cross-core fraction rises — spanning transactions serialize the involved
// cores behind a deterministic vote/barrier.
#include <string_view>

#include "common.h"

using namespace sdur;
using namespace sdur::bench;

int main(int argc, char** argv) {
  // --smoke: reduced sweep with a fixed client count (no saturation search),
  // used by the fig8_smoke ctest entry to exercise the multi-core path fast.
  const bool smoke = argc > 1 && std::string_view(argv[1]) == "--smoke";
  auto& rep = report_open("fig8_pdur_cores");
  print_header("P-DUR — local throughput vs. simulated cores (LAN, 1 partition)");

  const std::vector<double> crosses = smoke ? std::vector<double>{0.20} : std::vector<double>{0.0, 0.05, 0.20};
  const std::vector<std::uint32_t> core_counts =
      smoke ? std::vector<std::uint32_t>{1, 4} : std::vector<std::uint32_t>{1, 2, 4, 8};
  for (double cross : crosses) {
    std::printf("\n%2.0f%% cross-core transactions:\n", cross * 100);
    double base_tput = 0;
    for (std::uint32_t cores : core_counts) {
      Scenario s = bench_scenario(DeploymentSpec::Kind::kLan);
      s.spec.partitions = 1;
      s.spec.server.pdur.cores = cores;
      s.micro = {
          .items_per_partition = 20'000, .global_fraction = 0.0, .cross_core_fraction = cross};
      const std::uint32_t clients = smoke ? 48 : find_clients(s, 16, 4096);
      s.run.clients = clients;
      const RunResult r = run_bench(s);
      const double tput = r.throughput();
      if (base_tput == 0) base_tput = tput;  // 1-core baseline of this mix
      std::printf(
          "  %u core(s), %4u clients: %8.0f tps (%.2fx 1-core), local p99 %6.2f ms, "
          "single/cross-core %llu/%llu\n",
          cores, clients, tput, base_tput > 0 ? tput / base_tput : 0,
          static_cast<double>(r.p99("local")) / 1000.0,
          static_cast<unsigned long long>(r.servers.pdur_single_core),
          static_cast<unsigned long long>(r.servers.pdur_cross_core));
      rep.row()
          .num("cores", cores)
          .num("cross_fraction", cross)
          .num("clients", clients)
          .num("tput_tps", tput)
          .num("speedup_vs_1core", base_tput > 0 ? tput / base_tput : 0)
          .num("p99_local_ms", static_cast<double>(r.p99("local")) / 1000.0)
          .num("single_core_txns", static_cast<double>(r.servers.pdur_single_core))
          .num("cross_core_txns", static_cast<double>(r.servers.pdur_cross_core));
    }
  }
  return 0;
}

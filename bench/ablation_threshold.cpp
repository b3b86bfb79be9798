// Ablation: reorder-threshold sensitivity (paper Section IV-E: "the
// reordering threshold must be carefully chosen: a value that is too high
// ... might introduce unnecessary delays for global transactions").
//
// WAN 1, 10% globals, sweeping R from 0 (baseline) to 640 at constant
// load. Expected shape: local p99 falls quickly then flattens; global p99
// starts rising once the threshold forces globals to wait for deliveries
// that the workload cannot supply fast enough.
#include "common.h"

using namespace sdur;
using namespace sdur::bench;

int main() {
  auto& rep = report_open("ablation_threshold");
  print_header("Ablation — reorder threshold sweep (WAN 1, 10% globals)");

  Scenario s = bench_scenario(DeploymentSpec::Kind::kWan1);
  s.micro.global_fraction = 0.10;
  s.run.clients = find_clients(s);
  std::printf("(constant load: %u clients)\n", s.run.clients);

  for (std::uint32_t threshold : {0u, 20u, 40u, 80u, 160u, 320u, 640u}) {
    s.spec.server.techniques.reorder_threshold = threshold;
    const RunResult r = run_bench(s);
    std::printf(
        "  R=%4u: local p99=%8.1f ms avg=%7.1f ms | global p99=%8.1f ms avg=%7.1f ms | "
        "reordered=%llu ticks=%llu\n",
        threshold, static_cast<double>(r.p99("local")) / 1000.0,
        static_cast<double>(r.mean("local")) / 1000.0,
        static_cast<double>(r.p99("global")) / 1000.0,
        static_cast<double>(r.mean("global")) / 1000.0,
        static_cast<unsigned long long>(r.servers.reordered),
        static_cast<unsigned long long>(r.servers.ticks_sent));
    rep.row()
        .num("threshold", threshold)
        .num("p99_local_ms", static_cast<double>(r.p99("local")) / 1000.0)
        .num("avg_local_ms", static_cast<double>(r.mean("local")) / 1000.0)
        .num("p99_global_ms", static_cast<double>(r.p99("global")) / 1000.0)
        .num("avg_global_ms", static_cast<double>(r.mean("global")) / 1000.0)
        .num("reordered", static_cast<double>(r.servers.reordered))
        .num("ticks_sent", static_cast<double>(r.servers.ticks_sent));
  }
  return 0;
}

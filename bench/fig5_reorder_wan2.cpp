// Figure 5: reordering in WAN 2.
//
// For global mixes {1%, 10%, 50%} and reorder thresholds R in {baseline,
// 40, 80, 120}, throughput and latency of local and global transactions.
//
// Expected shape (paper Section VI-D): locals improve (229 -> 161 ms p99
// at 10% in the paper) but, unlike WAN 1, there is a visible tradeoff: the
// latency of globals grows slightly as locals leap them.
#include "common.h"

using namespace sdur;
using namespace sdur::bench;

int main() {
  report_open("fig5_reorder_wan2");
  const double mixes[] = {0.01, 0.10, 0.50};
  const std::uint32_t thresholds[] = {0, 40, 80, 120};

  print_header("Figure 5 — reordering transactions, WAN 2");

  for (double mix : mixes) {
    Scenario base = bench_scenario(DeploymentSpec::Kind::kWan2);
    base.micro.global_fraction = mix;
    base.run.clients = find_clients(base);

    const RunResult baseline = run_bench(base);
    const double target = baseline.throughput();
    std::printf("\n%2.0f%% globals (~%.0f tps held constant):\n", mix * 100, target);
    for (std::uint32_t threshold : thresholds) {
      Scenario s = base;
      s.spec.server.techniques.reorder_threshold = threshold;
      const RunResult r = threshold == 0 ? baseline : run_matched(s, target);
      char label[64];
      std::snprintf(label, sizeof(label), "%s / locals",
                    threshold == 0 ? "baseline" : ("R=" + std::to_string(threshold)).c_str());
      print_class_row(label, r, "local");
      std::snprintf(label, sizeof(label), "         globals");
      print_class_row(label, r, "global");
    }
  }
  return 0;
}

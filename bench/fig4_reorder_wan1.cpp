// Figure 4: reordering in WAN 1.
//
// For global mixes {1%, 10%, 50%} and reorder thresholds R in {baseline,
// 80, 160, 320}, throughput and latency of local and global transactions
// at comparable load.
//
// Expected shape (paper Section VI-D): reordering reduces local p99
// substantially for all mixes (48% / 58% / 69% in the paper) and also
// trims global p99 somewhat (28% / 15% / 12%).
#include "common.h"

using namespace sdur;
using namespace sdur::bench;

int main() {
  report_open("fig4_reorder_wan1");
  const double mixes[] = {0.01, 0.10, 0.50};
  const std::uint32_t thresholds[] = {0, 80, 160, 320};

  print_header("Figure 4 — reordering transactions, WAN 1");

  for (double mix : mixes) {
    Scenario base = bench_scenario(DeploymentSpec::Kind::kWan1);
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
      if (threshold > 0) {
        // Both counted at completion, summed over every replica.
        const std::uint64_t locals = r.servers.committed_local;
        std::printf("  %-28s reordered=%llu of %llu local commits (%.1f%%)\n", "",
                    static_cast<unsigned long long>(r.servers.reordered),
                    static_cast<unsigned long long>(locals),
                    locals == 0 ? 0.0 : 100.0 * static_cast<double>(r.servers.reordered) /
                                             static_cast<double>(locals));
      }
    }
  }
  return 0;
}

// Figure 3: the transaction-delaying technique in WAN 1.
//
// For global mixes {1%, 10%, 50%} and delays D in {baseline, 20, 40, 60}
// ms, throughput and latency of local and global transactions, holding the
// offered load constant across delay settings (paper Section VI-C).
//
// Expected shape: delaying helps local latency mainly at 1% globals
// (321 -> ~232 ms p99 in the paper) and brings little at 10%/50%.
#include "common.h"

using namespace sdur;
using namespace sdur::bench;

int main() {
  report_open("fig3_delaying");
  const double mixes[] = {0.01, 0.10, 0.50};
  const sim::Time delays[] = {0, sim::msec(20), sim::msec(40), sim::msec(60)};

  print_header("Figure 3 — delaying transactions, WAN 1");

  for (double mix : mixes) {
    Scenario base = bench_scenario(DeploymentSpec::Kind::kWan1);
    base.micro.global_fraction = mix;
    // One load search per mix, reused for every delay setting so the local
    // throughput stays approximately constant across configurations.
    base.run.clients = find_clients(base);

    const RunResult baseline = run_bench(base);
    const double target = baseline.throughput();
    std::printf("\n%2.0f%% globals (~%.0f tps held constant):\n", mix * 100, target);
    for (sim::Time d : delays) {
      Scenario s = base;
      s.spec.server.techniques.delaying_enabled = d > 0;
      s.spec.server.techniques.fixed_delay = d;
      const RunResult r = d == 0 ? baseline : run_matched(s, target);
      char label[64];
      if (d == 0) {
        std::snprintf(label, sizeof(label), "baseline / locals");
      } else {
        std::snprintf(label, sizeof(label), "D=%lld ms / locals", static_cast<long long>(d / 1000));
      }
      print_class_row(label, r, "local");
      std::snprintf(label, sizeof(label), "%s globals", d == 0 ? "baseline /" : "        /");
      print_class_row(label, r, "global");
    }
  }
  return 0;
}

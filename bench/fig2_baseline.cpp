// Figure 2: baseline SDUR in the WAN 1 and WAN 2 deployments.
//
// For each deployment and global-transaction mix {0%, 1%, 10%, 50%}:
// throughput, 99th-percentile and average latency of local and global
// transactions (bars and diamonds in the paper), plus latency CDFs for the
// 0% and 10% mixes.
//
// Expected shape (paper Section VI-B): in WAN 1, adding just 1% globals
// inflates local p99 by ~10x (321 ms vs 32.6 ms in the paper), partially
// recovering at 10%/50%; WAN 2 locals already pay the inter-region quorum
// (~170 ms) so globals hurt them far less.
#include "common.h"

using namespace sdur;
using namespace sdur::bench;

int main() {
  report_open("fig2_baseline");
  const double mixes[] = {0.0, 0.01, 0.10, 0.50};

  for (auto kind : {DeploymentSpec::Kind::kWan1, DeploymentSpec::Kind::kWan2}) {
    const char* name = kind == DeploymentSpec::Kind::kWan1 ? "WAN 1" : "WAN 2";
    print_header(std::string("Figure 2 — baseline SDUR, ") + name);

    for (double mix : mixes) {
      Scenario s = bench_scenario(kind);
      s.micro.global_fraction = mix;
      s.run.clients = find_clients(s);
      const RunResult r = run_bench(s);

      std::printf("\n%s, %2.0f%% globals (%u clients):\n", name, mix * 100, s.run.clients);
      print_class_row("local transactions", r, "local");
      if (mix > 0) print_class_row("global transactions", r, "global");
      if (mix == 0.0 || mix == 0.10) {
        print_cdf(mix == 0.0 ? "locals in 0%" : "locals in 10%", r, "local");
        if (mix > 0) print_cdf("globals in 10%", r, "global");
      }
    }
  }
  return 0;
}

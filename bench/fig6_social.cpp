// Figure 6: the Twitter-like social network application in WAN 1 and
// WAN 2, baseline vs. reordering (R=70 in WAN 1, R=20 in WAN 2).
//
// Mix: 85% timeline (global read-only), 7.5% post (local update), 7.5%
// follow (update; global with 50% probability). Reported per operation:
// throughput and p99/average latency.
//
// Expected shape (paper Section VI-E): in WAN 1 reordering improves
// timeline/post/follow p99 by ~67-71% and global follow by ~12%; in WAN 2
// timeline improves ~55%, post/follow ~20%, global follow is unchanged.
#include "common.h"

using namespace sdur;
using namespace sdur::bench;

int main() {
  report_open("fig6_social");

  struct Config {
    DeploymentSpec::Kind kind;
    const char* name;
    std::uint32_t threshold;
  };
  const Config configs[] = {
      {DeploymentSpec::Kind::kWan1, "WAN 1", 70},
      {DeploymentSpec::Kind::kWan2, "WAN 2", 20},
  };

  for (const Config& c : configs) {
    print_header(std::string("Figure 6 — social network, ") + c.name);

    Scenario s = bench_scenario(c.kind);
    s.workload = WorkloadKind::kSocial;
    s.social.users_per_partition = 20'000;  // paper: 100k/partition; see DESIGN.md
    s.run.clients = find_clients(s, 8, 2048);

    double target_tput = 0;
    for (std::uint32_t threshold : {0u, c.threshold}) {
      // Hold the offered load constant across the comparison (paper
      // methodology): adjust clients until total throughput matches the
      // baseline's.
      s.spec.server.techniques.reorder_threshold = threshold;
      std::uint32_t n = s.run.clients;
      RunResult r;
      if (threshold == 0) {
        r = run_bench(s);
        target_tput = r.throughput();
      } else {
        r = run_matched(s, target_tput, &n, 2);
      }

      std::printf("\n%s, %s (%u clients, total %.0f tps):\n", c.name,
                  threshold == 0 ? "baseline" : ("reordering R=" + std::to_string(threshold)).c_str(),
                  n, r.throughput());
      print_class_row("timeline (global RO)", r, "timeline");
      print_class_row("post (local)", r, "post");
      print_class_row("follow (local)", r, "follow");
      print_class_row("follow (global)", r, "follow_global");
    }
  }
  return 0;
}

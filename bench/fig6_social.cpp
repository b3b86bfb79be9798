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

namespace {

std::unique_ptr<Deployment> make_social_dep(DeploymentSpec::Kind kind, std::uint32_t threshold) {
  DeploymentSpec spec;
  spec.kind = kind;
  spec.partitions = 2;
  spec.partitioning = SocialWorkload::make_partitioning(2);
  spec.server.techniques.reorder_threshold = threshold;
  return std::make_unique<Deployment>(spec);
}

}  // namespace

int main() {
  report_open("fig6_social");
  SocialConfig sc;
  sc.users_per_partition = 20'000;  // paper: 100k/partition; see DESIGN.md

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

    const std::uint32_t clients = workload::find_operating_point(
        [&] { return make_social_dep(c.kind, 0); },
        [&] { return std::make_unique<SocialWorkload>(sc); }, probe_config(), 0.75, 8, 2048);

    double target_tput = 0;
    for (std::uint32_t threshold : {0u, c.threshold}) {
      // Hold the offered load constant across the comparison (paper
      // methodology): adjust clients until total throughput matches the
      // baseline's.
      std::uint32_t n = clients;
      RunResult r = [&] {
        auto dep = make_social_dep(c.kind, threshold);
        SocialWorkload wl(sc);
        return workload::run_experiment(*dep, wl, final_config(n));
      }();
      if (threshold == 0) {
        target_tput = r.throughput();
      } else {
        for (int attempt = 0; attempt < 2; ++attempt) {
          const double tput = r.throughput();
          if (tput <= 0 || std::abs(tput - target_tput) / target_tput < 0.05) break;
          n = std::max<std::uint32_t>(
              1, static_cast<std::uint32_t>(static_cast<double>(n) * target_tput / tput));
          auto dep = make_social_dep(c.kind, threshold);
          SocialWorkload wl(sc);
          r = workload::run_experiment(*dep, wl, final_config(n));
        }
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

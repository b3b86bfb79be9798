// Ablation: read-only transaction modes (paper Section III-A).
//
// "Transactions that read from multiple partitions must either be
//  certified at termination to check the consistency of snapshots or
//  request a globally-consistent snapshot upon start; globally-consistent
//  snapshots, however, may observe an outdated database since they are
//  built asynchronously by servers."
//
// This bench quantifies the tradeoff on the social network's timeline
// operation (a multi-partition read): gossip snapshots never abort but are
// built asynchronously; certified read-only transactions see fresh data
// but pay the termination protocol and can abort.
#include "common.h"

using namespace sdur;
using namespace sdur::bench;

namespace {

void run_mode(const char* label, bool certified) {
  Scenario s = bench_scenario(DeploymentSpec::Kind::kWan1);
  s.run.clients = 128;
  s.workload = WorkloadKind::kSocial;
  s.social = {.users_per_partition = 5'000, .certified_timeline = certified};
  const RunResult r = run_bench(s);

  const auto& tl = r.classes.at("timeline");
  const double abort_pct = tl.committed + tl.aborted == 0
                               ? 0.0
                               : 100.0 * static_cast<double>(tl.aborted) /
                                     static_cast<double>(tl.committed + tl.aborted);
  std::printf("  %-26s tput=%8.0f tps   p99=%8.1f ms   avg=%7.1f ms   aborts=%llu (%.2f%%)\n",
              label, r.throughput("timeline"), static_cast<double>(r.p99("timeline")) / 1000.0,
              static_cast<double>(r.mean("timeline")) / 1000.0,
              static_cast<unsigned long long>(tl.aborted), abort_pct);
  if (auto* rep = report()) {
    rep->row()
        .str("label", label)
        .num("tput_tps", r.throughput("timeline"))
        .num("p99_ms", static_cast<double>(r.p99("timeline")) / 1000.0)
        .num("avg_ms", static_cast<double>(r.mean("timeline")) / 1000.0)
        .num("abort_pct", abort_pct);
  }
}

}  // namespace

int main() {
  report_open("ablation_readonly");
  print_header("Ablation — read-only timeline: gossip snapshot vs certified (WAN 1)");
  run_mode("gossip snapshot (paper)", false);
  run_mode("certified at termination", true);
  std::printf(
      "\n  (gossip timelines never abort and avoid the termination protocol;\n"
      "   certified timelines see the freshest data but pay certification\n"
      "   and cross-partition votes, and can abort)\n");
  return 0;
}

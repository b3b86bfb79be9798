// YCSB-style workloads on SDUR (extension beyond the paper's evaluation):
// the standard A/B/C mixes over a Zipf-skewed keyspace, on the LAN and
// WAN 1 deployments. Single-key reads commit locally from a snapshot;
// updates go through certification.
#include "common.h"

using namespace sdur;
using namespace sdur::bench;
using workload::YcsbConfig;

namespace {

void run_mix(DeploymentSpec::Kind kind, const char* kind_name, YcsbConfig::Mix mix) {
  Scenario s = bench_scenario(kind);
  s.run.clients = 128;
  s.workload = WorkloadKind::kYcsb;
  s.ycsb = {.mix = mix, .records_per_partition = 50'000};
  const RunResult r = run_bench(s);

  const double update_aborts =
      static_cast<double>(r.classes.count("update") ? r.classes.at("update").aborted : 0);
  std::printf("  %-6s %-14s total=%8.0f ops/s   read p99=%7.1f ms   update p99=%7.1f ms   "
              "update aborts=%.0f\n",
              kind_name, YcsbConfig::mix_name(mix), r.throughput(),
              static_cast<double>(r.p99("read")) / 1000.0,
              static_cast<double>(r.p99("update")) / 1000.0, update_aborts);
  if (auto* rep = report()) {
    rep->row()
        .str("deployment", kind_name)
        .str("mix", YcsbConfig::mix_name(mix))
        .num("tput_ops", r.throughput())
        .num("p99_read_ms", static_cast<double>(r.p99("read")) / 1000.0)
        .num("p99_update_ms", static_cast<double>(r.p99("update")) / 1000.0)
        .num("update_aborts", update_aborts);
  }
}

}  // namespace

int main() {
  report_open("ycsb_bench");
  print_header("YCSB-style mixes (Zipf 0.99, 2 partitions, 128 clients)");
  for (auto mix : {YcsbConfig::Mix::kA, YcsbConfig::Mix::kB, YcsbConfig::Mix::kC}) {
    run_mix(DeploymentSpec::Kind::kLan, "LAN", mix);
  }
  for (auto mix : {YcsbConfig::Mix::kA, YcsbConfig::Mix::kB, YcsbConfig::Mix::kC}) {
    run_mix(DeploymentSpec::Kind::kWan1, "WAN 1", mix);
  }
  return 0;
}

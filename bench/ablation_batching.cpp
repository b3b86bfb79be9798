// Ablation: Paxos batching and pipelining.
//
// The leader packs forwarded values into batches (one Paxos instance
// carries up to max_batch transactions) and keeps up to pipeline_window
// instances in flight. This bench shows how both knobs shape throughput
// and latency on a LAN, where the ordering layer is the bottleneck.
#include "common.h"

using namespace sdur;
using namespace sdur::bench;

namespace {

void run_case(std::size_t max_batch, std::size_t pipeline) {
  DeploymentSpec spec;
  spec.kind = DeploymentSpec::Kind::kLan;
  spec.partitions = 2;
  const std::uint64_t items = 20'000;
  spec.partitioning = MicroWorkload::make_partitioning(2, items);
  spec.paxos.max_batch = max_batch;
  spec.paxos.pipeline_window = pipeline;

  MicroConfig mc;
  mc.items_per_partition = items;
  mc.global_fraction = 0.0;
  MicroWorkload wl(mc);
  Deployment dep(spec);
  const RunResult r = workload::run_experiment(dep, wl, final_config(256));

  std::printf("  batch=%3zu pipeline=%3zu: %8.0f tps   local p99=%7.1f ms avg=%6.1f ms\n",
              max_batch, pipeline, r.throughput(),
              static_cast<double>(r.p99("local")) / 1000.0,
              static_cast<double>(r.mean("local")) / 1000.0);
  if (auto* rep = report()) {
    rep->row()
        .num("max_batch", static_cast<double>(max_batch))
        .num("pipeline_window", static_cast<double>(pipeline))
        .num("tput_tps", r.throughput())
        .num("p99_local_ms", static_cast<double>(r.p99("local")) / 1000.0)
        .num("avg_local_ms", static_cast<double>(r.mean("local")) / 1000.0);
  }
}

}  // namespace

int main() {
  report_open("ablation_batching");
  print_header("Ablation — Paxos batching/pipelining (LAN, 0% globals, 256 clients)");
  run_case(1, 8);
  run_case(1, 64);
  run_case(16, 8);
  run_case(16, 64);
  run_case(64, 8);
  run_case(64, 64);
  return 0;
}

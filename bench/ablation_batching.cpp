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
  Scenario s = bench_scenario(DeploymentSpec::Kind::kLan);
  s.spec.paxos.max_batch = max_batch;
  s.spec.paxos.pipeline_window = pipeline;
  s.run.clients = 256;
  s.micro = {.items_per_partition = 20'000, .global_fraction = 0.0};
  const RunResult r = run_bench(s);

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

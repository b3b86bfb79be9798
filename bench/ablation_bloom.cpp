// Ablation: bloom-filter certification (paper Section V).
//
// The prototype ships readsets as bloom filters and keeps committed
// records as filters, trading a small false-positive abort rate for
// bandwidth. The saving depends on readset size: tiny readsets (the
// 2-item microbenchmark) fit in fewer bytes exactly, while larger
// readsets compress well. This bench quantifies wire bytes per committed
// transaction and the abort rate for both representations at two readset
// sizes.
#include "common.h"

using namespace sdur;
using namespace sdur::bench;

namespace {

void run_case(bool bloom, std::size_t ops) {
  DeploymentSpec spec;
  spec.kind = DeploymentSpec::Kind::kWan1;
  spec.partitions = 2;
  const std::uint64_t items = 100'000;
  spec.partitioning = MicroWorkload::make_partitioning(2, items);
  spec.server.techniques.bloom_readsets = bloom;

  MicroConfig mc;
  mc.items_per_partition = items;
  mc.global_fraction = 0.10;
  mc.ops_per_txn = ops;
  MicroWorkload wl(mc);
  Deployment dep(spec);
  const RunResult r = workload::run_experiment(dep, wl, final_config(64));

  const std::uint64_t committed = r.servers.committed_local + r.servers.committed_global;
  const double bytes_per_commit =
      committed == 0 ? 0 : static_cast<double>(r.net.bytes_sent) / static_cast<double>(committed);
  const std::uint64_t aborted = r.servers.aborted;
  const double abort_pct =
      committed + aborted == 0
          ? 0.0
          : 100.0 * static_cast<double>(aborted) / static_cast<double>(committed + aborted);
  std::printf("  %-7s readsets, %2zu ops/txn: tput=%7.0f tps   wire=%7.0f B/commit   "
              "aborts=%.3f%%\n",
              bloom ? "bloom" : "exact", ops, r.throughput(), bytes_per_commit, abort_pct);
  if (auto* rep = report()) {
    rep->row()
        .str("readsets", bloom ? "bloom" : "exact")
        .num("ops_per_txn", static_cast<double>(ops))
        .num("tput_tps", r.throughput())
        .num("wire_bytes_per_commit", bytes_per_commit)
        .num("abort_pct", abort_pct);
  }
}

}  // namespace

int main() {
  report_open("ablation_bloom");
  print_header("Ablation — exact vs. bloom-filter certification (WAN 1, 10% globals)");
  run_case(false, 2);
  run_case(true, 2);
  run_case(false, 16);
  run_case(true, 16);
  std::printf(
      "\n  (bloom mode ships only filter bits for readsets; the abort column\n"
      "   includes bloom false positives — the paper's 'small amount of\n"
      "   transactions aborted due to false positives')\n");
  return 0;
}

// Ablation: contention sensitivity.
//
// The paper's microbenchmark draws keys uniformly from a large keyspace,
// so certification aborts are rare. This bench sweeps key skew (Zipf
// theta) and keyspace size to show how optimistic certification degrades
// under contention — the fundamental cost of deferred update replication's
// lock-free execution phase.
#include "common.h"

using namespace sdur;
using namespace sdur::bench;

namespace {

void run_case(std::uint64_t items, double theta) {
  Scenario s = bench_scenario(DeploymentSpec::Kind::kLan);
  s.run.clients = 128;
  s.micro = {.items_per_partition = items, .global_fraction = 0.1, .zipf_theta = theta};
  const RunResult r = run_bench(s);

  std::uint64_t committed = 0, aborted = 0;
  for (const auto& [cls, st] : r.classes) {
    committed += st.committed;
    aborted += st.aborted;
  }
  const double abort_pct =
      committed + aborted == 0
          ? 0.0
          : 100.0 * static_cast<double>(aborted) / static_cast<double>(committed + aborted);
  std::printf("  items/partition=%7llu theta=%.2f: %8.0f tps   abort rate=%6.2f%%\n",
              static_cast<unsigned long long>(items), theta, r.throughput(), abort_pct);
  if (auto* rep = report()) {
    rep->row()
        .num("items_per_partition", static_cast<double>(items))
        .num("zipf_theta", theta)
        .num("tput_tps", r.throughput())
        .num("abort_pct", abort_pct);
  }
}

}  // namespace

int main() {
  report_open("ablation_contention");
  print_header("Ablation — contention: keyspace size and Zipf skew (LAN, 10% globals)");
  run_case(100'000, 0.0);
  run_case(100'000, 0.8);
  run_case(100'000, 0.99);
  run_case(1'000, 0.0);
  run_case(1'000, 0.99);
  run_case(100, 0.0);
  return 0;
}

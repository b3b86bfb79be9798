// Speculative global commit ablation (see DESIGN.md "Speculative global
// commit"): a locally-certified global vacates the pending-list head
// immediately, its writes held in its termination round, so the
// transactions delivered behind it stop paying the cross-region vote
// round trip; the votes later commit it (finalize applies the writes at
// its certified version) or abort it (nothing to undo — no read of a key
// is served at or above an unresolved writer of that key).
//
// The sweep runs each global-mix / conflict cell twice (speculation off
// vs on) on WAN 1 with reorder_threshold = 0 — the configuration where
// global head-of-line blocking is purest — and reports for every arm
//   - committed throughput and the abort rate,
//   - the globals' commit_wait stage mean (ready -> speculated: with
//     speculation on, the wait moves into the spec_window stage),
//   - the globals' spec_window stage mean and local / global e2e means,
//   - the speculation counters (speculated / committed / aborted).
//
// The contended cell (small keyspace + Zipf skew, shared with
// bench/ablation_convoy_bypass) shows the technique under frequent
// conflicts and vote aborts.
//
// Flags:
//   --smoke   reduced sweep; used by the ablation_speculation_smoke ctest
//             entry. In both modes the binary exits non-zero when the
//             acceptance bar breaks: at 2 partitions / 10% globals /
//             low conflict, speculation must shrink the globals'
//             commit_wait stage mean by >= 2x while raising the abort
//             rate by at most 1 percentage point (with trace compiled
//             out, only the counter and abort-rate bars apply).
#include <string_view>
#include <vector>

#include "common.h"

using namespace sdur;
using namespace sdur::bench;

namespace {

struct ArmResult {
  double tput = 0;
  double abort_rate = 0;                  // aborted / (committed + aborted)
  double global_commit_wait_ms = -1;      // global-class stage mean; -1 = n/a
  double global_spec_window_ms = -1;
  double local_e2e_ms = -1;
  double global_e2e_ms = -1;
  std::uint64_t speculated = 0;
  std::uint64_t finalized = 0;
  std::uint64_t rolled_back = 0;
};

/// Runs one arm traced; reads its counters and stage means.
ArmResult run_arm(const Scenario& s, std::size_t ring) {
  const TracedRun t = run_traced(s, ring);
  const Server::Stats& st = t.run.servers;
  const double committed = static_cast<double>(st.committed_local + st.committed_global);
  const double aborted = static_cast<double>(st.aborted);
  return {.tput = t.run.throughput(),
          .abort_rate = committed + aborted > 0 ? aborted / (committed + aborted) : 0.0,
          .global_commit_wait_ms = mean_ms(t.breakdown.global, "commit_wait"),
          .global_spec_window_ms = mean_ms(t.breakdown.global, "spec_window"),
          .local_e2e_ms = mean_ms(t.breakdown.local, "e2e"),
          .global_e2e_ms = mean_ms(t.breakdown.global, "e2e"),
          .speculated = st.speculated_globals,
          .finalized = st.spec_commits,
          .rolled_back = st.spec_aborts};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }
  auto& rep = report_open("speculation");
  print_header("Speculative global commit ablation (WAN 1, reordering off)");

  struct Cell {
    double global_fraction;
    std::uint64_t items;
    double zipf;
    const char* conflict;
  };
  std::vector<Cell> cells = {{0.1, 100'000, 0.0, "low"}};
  if (!smoke) {
    cells.push_back({0.3, 100'000, 0.0, "low"});
    cells.push_back({0.1, 2'000, 0.99, "zipf"});  // contended cell (shared
                                                  // with ablation_convoy_bypass)
  }
  const std::uint32_t clients = smoke ? 48 : 96;
  const std::size_t ring = smoke ? (1u << 18) : (1u << 20);

  bool ok = true;
  for (const Cell& cell : cells) {
    std::printf("\n2 partitions, %.0f%% global, %s conflict, %u clients:\n",
                cell.global_fraction * 100, cell.conflict, clients);
    ArmResult off;
    for (const bool speculate : {false, true}) {
      Scenario s = bench_scenario(DeploymentSpec::Kind::kWan1);
      s.spec.server.techniques.speculation = speculate;
      s.run.clients = clients;
      s.micro = {.items_per_partition = cell.items,
                 .global_fraction = cell.global_fraction,
                 .zipf_theta = cell.zipf};
      const ArmResult r = run_arm(s, ring);

      std::printf(
          "  %-8s tput=%8.0f tps  global commit_wait=%8.2f ms  spec_window=%7.2f ms  "
          "local e2e=%6.1f ms  global e2e=%6.1f ms  aborts=%5.2f%%  spec=%llu/%llu/%llu\n",
          speculate ? "spec" : "off", r.tput, r.global_commit_wait_ms, r.global_spec_window_ms,
          r.local_e2e_ms, r.global_e2e_ms, r.abort_rate * 100,
          static_cast<unsigned long long>(r.speculated),
          static_cast<unsigned long long>(r.finalized),
          static_cast<unsigned long long>(r.rolled_back));
      rep.row()
          .str("label", speculate ? "spec" : "off")
          .str("conflict", cell.conflict)
          .num("global_fraction", cell.global_fraction)
          .num("zipf", cell.zipf)
          .num("clients", clients)
          .num("tput_tps", r.tput)
          .num("global_commit_wait_ms", r.global_commit_wait_ms)
          .num("global_spec_window_ms", r.global_spec_window_ms)
          .num("local_e2e_ms", r.local_e2e_ms)
          .num("global_e2e_ms", r.global_e2e_ms)
          .num("abort_rate", r.abort_rate)
          .num("speculated", static_cast<double>(r.speculated))
          .num("spec_finalized", static_cast<double>(r.finalized))
          .num("spec_rolled_back", static_cast<double>(r.rolled_back));

      if (!speculate) {
        off = r;
        continue;
      }
      // Acceptance bar, checked at the headline cell (2 partitions / 10%
      // globals / low conflict). Other cells are reported but not gated.
      if (cell.zipf != 0.0 || cell.global_fraction != 0.1) continue;
      if (r.speculated == 0) {
        std::fprintf(stderr,
                     "ablation_speculation: speculation arm speculated no global at "
                     "%.0f%% globals — the blocking scenario never arose\n",
                     cell.global_fraction * 100);
        ok = false;
      }
      const bool attributed = off.global_commit_wait_ms > 0 && r.global_commit_wait_ms >= 0;
      if (attributed && r.global_commit_wait_ms > off.global_commit_wait_ms / 2.0) {
        std::fprintf(stderr,
                     "ablation_speculation: globals' commit_wait only moved %.2f -> %.2f ms "
                     "(bar: >= 2x shrink)\n",
                     off.global_commit_wait_ms, r.global_commit_wait_ms);
        ok = false;
      }
      if (r.abort_rate > off.abort_rate + 0.01) {
        std::fprintf(stderr,
                     "ablation_speculation: abort rate rose %.2f%% -> %.2f%% "
                     "(bar: <= +1 percentage point)\n",
                     off.abort_rate * 100, r.abort_rate * 100);
        ok = false;
      }
    }
  }
  return ok ? 0 : 1;
}

// Latency attribution ("where does simulated time go"): decomposes the
// end-to-end latency of local and global transactions into the lifecycle
// stages recorded by src/trace/ — client->server submit, atomic broadcast
// (Paxos), replica CPU queue wait, charged certification/apply work,
// P-DUR home-core execution, vote exchange + reorder-threshold wait, and
// the reply back to the client. This is the paper's evaluation lens
// (Figures 2-7 explain S-DUR by exactly this decomposition); the P-DUR
// section adds per-lane visibility for the multi-core replica model
// (arXiv:1312.0742).
//
// The stages telescope between consecutive trace marks, so the sum of
// stage means must equal the mean end-to-end latency over the attributed
// chains (within floating-point rounding; the acceptance bar is 5%). The
// bench checks that bound itself and fails loudly when it breaks.
//
// Flags:
//   --smoke            reduced sweep + hard exit code on a broken bound
//                      (used by the latency_breakdown_smoke ctest entry)
//   --trace-json=PATH  additionally export the first sweep's raw trace as
//                      Chrome trace-event JSON (Perfetto-loadable)
#include <string>
#include <string_view>

#include "common.h"

using namespace sdur;
using namespace sdur::bench;

#if SDUR_TRACE
namespace {

/// Runs one traced configuration and returns the attribution; with a
/// `chrome_path`, also exports the raw trace there.
trace::Breakdown attribute(const Scenario& s, std::size_t ring, const std::string& chrome_path) {
  return run_traced(s, ring,
                    [&](const trace::Tracer& tracer) {
                      if (chrome_path.empty()) return;
                      if (trace::write_chrome_trace(tracer, chrome_path)) {
                        std::printf("  (chrome trace: %s, %llu records, %llu dropped)\n",
                                    chrome_path.c_str(),
                                    static_cast<unsigned long long>(tracer.records_appended()),
                                    static_cast<unsigned long long>(tracer.records_dropped()));
                      } else {
                        std::fprintf(stderr, "latency_breakdown: cannot write %s\n",
                                     chrome_path.c_str());
                      }
                    })
      .breakdown;
}

/// Prints and reports one class's stage table; returns false if the
/// telescoping bound (sum of stage means within 5% of the e2e mean) is
/// violated for a class that attributed any chains.
bool emit_class(BenchReport& rep, const std::string& label, const std::string& cls,
                const trace::Breakdown::Class& c) {
  if (c.chains == 0) return true;
  std::printf("  %-8s (%llu chains): e2e mean %8.1f ms  p50 %8.1f  p99 %8.1f ms\n", cls.c_str(),
              static_cast<unsigned long long>(c.chains), c.e2e.mean() / 1000.0,
              static_cast<double>(c.e2e.percentile(50)) / 1000.0,
              static_cast<double>(c.e2e.percentile(99)) / 1000.0);
  for (std::size_t s = 0; s < trace::Breakdown::kStages; ++s) {
    const util::Histogram& h = c.stage[s];
    const double share = c.e2e.mean() > 0 ? 100.0 * h.mean() / c.e2e.mean() : 0;
    std::printf("    %-12s mean %8.1f ms (%5.1f%%)  p50 %8.1f  p99 %8.1f ms\n",
                trace::Breakdown::stage_name(s), h.mean() / 1000.0, share,
                static_cast<double>(h.percentile(50)) / 1000.0,
                static_cast<double>(h.percentile(99)) / 1000.0);
    rep.row()
        .str("label", label)
        .str("class", cls)
        .str("stage", trace::Breakdown::stage_name(s))
        .num("mean_ms", h.mean() / 1000.0)
        .num("p50_ms", static_cast<double>(h.percentile(50)) / 1000.0)
        .num("p99_ms", static_cast<double>(h.percentile(99)) / 1000.0)
        .num("share_pct", share);
  }
  const double sum = c.sum_of_stage_means();
  const double e2e = c.e2e.mean();
  const double rel = e2e > 0 ? std::abs(sum - e2e) / e2e : 0;
  rep.row()
      .str("label", label)
      .str("class", cls)
      .str("stage", "e2e")
      .num("chains", static_cast<double>(c.chains))
      .num("mean_ms", e2e / 1000.0)
      .num("p50_ms", static_cast<double>(c.e2e.percentile(50)) / 1000.0)
      .num("p99_ms", static_cast<double>(c.e2e.percentile(99)) / 1000.0)
      .num("sum_of_stage_means_ms", sum / 1000.0)
      .num("stage_sum_rel_error", rel);
  if (rel > 0.05) {
    std::fprintf(stderr,
                 "latency_breakdown: %s/%s stage means sum to %.1f us but e2e mean is %.1f us "
                 "(rel error %.3f > 0.05)\n",
                 label.c_str(), cls.c_str(), sum, e2e, rel);
    return false;
  }
  return true;
}

}  // namespace
#endif  // SDUR_TRACE

int main(int argc, char** argv) {
#if !SDUR_TRACE
  (void)argc;
  (void)argv;
  std::printf(
      "latency_breakdown: built with SDUR_TRACE=0 — instrumentation compiled "
      "out, nothing to attribute\n");
  return 0;
#else
  bool smoke = false;
  std::string chrome_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") smoke = true;
    if (arg.rfind("--trace-json=", 0) == 0) chrome_path = std::string(arg.substr(13));
  }
  auto& rep = report_open("trace_breakdown");
  print_header("Latency attribution — per-stage breakdown (WAN1)");

  const std::size_t ring = smoke ? (1u << 18) : (1u << 20);
  bool ok = true;
  bool any_chains = false;

  const std::vector<PartitionId> partition_counts =
      smoke ? std::vector<PartitionId>{1, 2} : std::vector<PartitionId>{1, 2, 4};
  for (PartitionId parts : partition_counts) {
    Scenario s = bench_scenario(DeploymentSpec::Kind::kWan1);
    s.spec.partitions = parts;
    s.run.clients = smoke ? 16 : 48;
    s.micro = {.items_per_partition = 20'000, .global_fraction = parts > 1 ? 0.2 : 0.0};
    const std::string label = std::to_string(parts) + "p";
    std::printf("\n%u partition(s), %u clients, %.0f%% global:\n", parts, s.run.clients,
                s.micro.global_fraction * 100);
    // The chrome export (if requested) captures the most interesting
    // sweep: the largest partition count, where globals exercise the
    // vote-exchange path.
    const bool last = parts == partition_counts.back();
    const trace::Breakdown b = attribute(s, ring, last ? chrome_path : "");
    ok = emit_class(rep, label, "local", b.local) && ok;
    ok = emit_class(rep, label, "global", b.global) && ok;
    any_chains = any_chains || b.local.chains > 0 || b.global.chains > 0;
    std::printf("  (aborted %llu, incomplete %llu chains)\n",
                static_cast<unsigned long long>(b.aborted_chains),
                static_cast<unsigned long long>(b.incomplete_chains));
  }

  // P-DUR section: multi-core replica, where lane_exec (home-core work
  // deferred behind the dispatch) becomes a real stage.
  {
    Scenario s = bench_scenario(DeploymentSpec::Kind::kLan);
    s.spec.partitions = 1;
    s.spec.server.pdur.cores = 4;
    s.run.clients = smoke ? 24 : 64;
    s.micro = {.items_per_partition = 20'000, .global_fraction = 0.0, .cross_core_fraction = 0.2};
    std::printf("\nP-DUR, 4 cores, %u clients, 20%% cross-core (LAN):\n", s.run.clients);
    const trace::Breakdown b = attribute(s, ring, "");
    ok = emit_class(rep, "pdur-4c", "local", b.local) && ok;
    any_chains = any_chains || b.local.chains > 0;
    std::printf("  (aborted %llu, incomplete %llu chains)\n",
                static_cast<unsigned long long>(b.aborted_chains),
                static_cast<unsigned long long>(b.incomplete_chains));
  }

  // Multi-partition P-DUR (arXiv:1312.0742 Section V): every replica runs
  // 4 cores and globals cross partitions, so a chain can pay lane_exec
  // AND commit_wait — the decomposition shows how the two compose.
  const std::vector<PartitionId> pdur_partition_counts =
      smoke ? std::vector<PartitionId>{2} : std::vector<PartitionId>{2, 4};
  for (PartitionId parts : pdur_partition_counts) {
    Scenario s = bench_scenario(DeploymentSpec::Kind::kWan1);
    s.spec.partitions = parts;
    s.spec.server.pdur.cores = 4;
    s.run.clients = (smoke ? 16 : 48) * parts / 2;
    s.micro = {.items_per_partition = 20'000, .global_fraction = 0.2, .cross_core_fraction = 0.2};
    const std::string label = "pdur-4c-" + std::to_string(parts) + "p";
    std::printf("\nP-DUR, 4 cores, %u partitions, %u clients, 20%% global (WAN1):\n", parts,
                s.run.clients);
    const trace::Breakdown b = attribute(s, ring, "");
    ok = emit_class(rep, label, "local", b.local) && ok;
    ok = emit_class(rep, label, "global", b.global) && ok;
    any_chains = any_chains || b.local.chains > 0 || b.global.chains > 0;
    std::printf("  (aborted %llu, incomplete %llu chains)\n",
                static_cast<unsigned long long>(b.aborted_chains),
                static_cast<unsigned long long>(b.incomplete_chains));
  }

  if (!any_chains) {
    std::fprintf(stderr, "latency_breakdown: no complete chains attributed\n");
    return 1;
  }
  return ok ? 0 : 1;
#endif  // SDUR_TRACE
}

// Convoy-effect timeline (visualizes Section IV-C): per-100ms maximum
// local-transaction latency in WAN 1 with 1% globals. In the baseline,
// every global transaction drags the locals delivered behind it up to the
// cross-region vote latency — visible as periodic spikes; with reordering
// the spikes collapse.
#include "common.h"

using namespace sdur;
using namespace sdur::bench;

namespace {

void run_case(const char* label, std::uint32_t threshold) {
  Scenario s = bench_scenario(DeploymentSpec::Kind::kWan1);
  s.spec.server.techniques.reorder_threshold = threshold;
  s.run.clients = 100;  // light load: isolate the convoy, not queueing
  s.run.timeline_bucket = sim::msec(100);
  s.micro.global_fraction = 0.01;
  const RunResult r = run_bench(s);

  std::printf("\n%s (local p99 %.1f ms, avg %.1f ms). Max local latency per 100ms window:\n",
              label, static_cast<double>(r.p99("local")) / 1000.0,
              static_cast<double>(r.mean("local")) / 1000.0);
  auto it = r.timelines.find("local");
  if (it == r.timelines.end()) return;
  // Render ASCII sparklines: one char per window (~13ms per level).
  const char* ramp = " .:-=+*#%@";
  std::string avg_line, max_line;
  double worst_sum = 0;
  for (const auto& b : it->second) {
    const double avg_ms = b.count == 0 ? 0 : b.sum / static_cast<double>(b.count) / 1000.0;
    const double max_ms = static_cast<double>(b.max) / 1000.0;
    avg_line += ramp[std::min(9, static_cast<int>(avg_ms / 13.0))];
    max_line += ramp[std::min(9, static_cast<int>(max_ms / 13.0))];
    worst_sum += max_ms;
  }
  std::printf("  avg [%s]\n  max [%s]\n  mean of per-window max: %.1f ms\n", avg_line.c_str(),
              max_line.c_str(), worst_sum / static_cast<double>(it->second.size()));
  if (auto* rep = report()) {
    rep->row()
        .str("label", label)
        .num("threshold", threshold)
        .num("p99_local_ms", static_cast<double>(r.p99("local")) / 1000.0)
        .num("avg_local_ms", static_cast<double>(r.mean("local")) / 1000.0)
        .num("mean_window_max_ms", worst_sum / static_cast<double>(it->second.size()));
  }
}

}  // namespace

int main() {
  report_open("convoy_timeline");
  print_header("Convoy timeline — WAN 1, 1% globals, light load");
  run_case("baseline (locals stuck behind globals)", 0);
  run_case("reordering R=160", 160);
  return 0;
}

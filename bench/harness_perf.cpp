// Wall-clock performance harness for the simulation fabric.
//
// Unlike the figure benches (which report *simulated* throughput/latency),
// this harness measures how fast the host machine chews through the
// simulation itself: events/sec and messages/sec of real time, plus the
// fabric's host-side copy counters (sim/fabric_stats.h). It is the yard-
// stick for fabric optimizations — every run of every other experiment in
// this repo is bounded by these numbers.
//
// Two sections:
//   fabric_storm  A broadcast storm on bare sim::Process actors: one hub
//                 fans a payload out to every spoke each simulated tick.
//                 Pure fan-out — isolates message copy + event-loop cost
//                 from protocol logic.
//   sdur_e2e      A message-heavy SDUR deployment (2 partitions, wide
//                 writesets, 30% globals) driven by closed-loop clients.
//                 The realistic mix: Paxos broadcast, vote fan-out,
//                 certification, timers. Runs three times: the `baseline`
//                 techniques (row sdur_e2e), `all-on` (row
//                 sdur_e2e_all_on), whose completion loop also bypasses
//                 locals and speculates globals, and `baseline` on 4 P-DUR
//                 cores with 20% cross-core transactions (row
//                 sdur_e2e_pdur4).
//
// Results are printed and written to BENCH_harness_perf.json via the
// shared reporter. `--smoke` runs a seconds-scale version for CTest.
//
// Determinism note: all *simulated* results remain a pure function of the
// seed; only the wall-clock figures vary between hosts/runs.
#include <chrono>
#include <cinttypes>
#include <cstring>

#include "common.h"
#include "sim/fabric_stats.h"

namespace sdur::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Prints and exports one section's host rates, its network totals and
/// the fabric counters it accumulated since the last reset.
void report_metrics(const char* section, double wall_sec, std::uint64_t events,
                    const sim::NetworkStats& net) {
  const double events_per_sec = static_cast<double>(events) / wall_sec;
  const double msgs_per_sec = static_cast<double>(net.messages_sent) / wall_sec;
  std::printf("  %-15s wall=%6.2fs  events=%10" PRIu64 " (%10.0f/s)  msgs=%9" PRIu64
              " (%9.0f/s)\n  %-15s",
              section, wall_sec, events, events_per_sec, net.messages_sent, msgs_per_sec, "");
  sim::fabric_counters().for_each([](const char* name, std::uint64_t v) {
    std::printf(" %s=%" PRIu64, name, v);
  });
  std::printf("\n");
  if (auto* rep = report()) {
    auto& row = rep->row()
                    .str("section", section)
                    .num("wall_sec", wall_sec)
                    .num("events", static_cast<double>(events))
                    .num("events_per_sec", events_per_sec)
                    .num("messages_sent", static_cast<double>(net.messages_sent))
                    .num("messages_per_sec", msgs_per_sec)
                    .num("bytes_sent", static_cast<double>(net.bytes_sent));
    sim::fabric_counters().for_each(
        [&](const char* name, std::uint64_t v) { row.num(name, static_cast<double>(v)); });
  }
}

// --- Section 1: broadcast storm on bare processes ----------------------------

/// Counts received bytes; the hub below fans out to these.
class Spoke : public sim::Process {
 public:
  Spoke(sim::Network& net, sim::ProcessId id, sim::Location loc)
      : Process(net, id, "spoke", loc) {}
  std::uint64_t received = 0;

 protected:
  void on_message(const sim::Message& m, sim::ProcessId) override {
    received += m.payload.size();
  }
};

/// Broadcasts one payload to every spoke per tick — the same encode-once /
/// send-n-times shape as PaxosEngine::broadcast and vote fan-out.
class Hub : public sim::Process {
 public:
  Hub(sim::Network& net, sim::ProcessId id, sim::Location loc,
      std::vector<sim::ProcessId> peers, std::size_t payload_size, sim::Time period,
      sim::Time horizon)
      : Process(net, id, "hub", loc),
        peers_(std::move(peers)),
        payload_size_(payload_size),
        period_(period),
        horizon_(horizon) {}

  void start() { tick(); }

 protected:
  void on_message(const sim::Message&, sim::ProcessId) override {}

 private:
  void tick() {
    util::Writer w(payload_size_);
    for (std::size_t i = 0; i < payload_size_; ++i) {
      w.u8(static_cast<std::uint8_t>(i ^ static_cast<std::size_t>(ticks_)));
    }
    const sim::Message m{60, std::move(w)};
    for (sim::ProcessId p : peers_) send(p, m);
    ++ticks_;
    if (now() < horizon_) set_timer(period_, [this] { tick(); });
  }

  std::vector<sim::ProcessId> peers_;
  std::size_t payload_size_;
  sim::Time period_;
  sim::Time horizon_;
  std::uint64_t ticks_ = 0;
};

void run_storm(std::uint32_t spokes, std::size_t payload_size, sim::Time horizon) {
  sim::Simulator sim;
  sim::Topology topo = sim::Topology::ec2_three_regions();
  topo.set_jitter(0.05);
  sim::Network net(sim, topo, /*seed=*/11);

  std::vector<std::unique_ptr<Spoke>> procs;
  std::vector<sim::ProcessId> ids;
  for (std::uint32_t i = 0; i < spokes; ++i) {
    const sim::ProcessId pid = 2 + i;
    procs.push_back(std::make_unique<Spoke>(
        net, pid, sim::Location{sim::kEU, static_cast<std::uint16_t>(i % 3)}));
    ids.push_back(pid);
  }
  Hub hub(net, 1, sim::Location{sim::kEU, 0}, ids, payload_size, sim::usec(100), horizon);

  sim::fabric_counters().reset();
  const auto t0 = Clock::now();
  hub.start();
  sim.run();
  report_metrics("fabric_storm", seconds_since(t0), sim.events_processed(), net.stats());
}

// --- Section 2: message-heavy SDUR deployment --------------------------------

void run_e2e(const char* section, const TechniqueConfig& techniques, std::uint32_t cores,
             std::uint32_t clients, sim::Time measure) {
  Scenario s;
  s.spec.kind = DeploymentSpec::Kind::kLan;  // dense event stream, high msg rate
  s.spec.server.techniques = techniques;
  s.spec.server.pdur.cores = cores;
  s.spec.seed = 5;
  s.run = {.clients = clients,
           .settle = sim::msec(1200),
           .warmup = sim::msec(500),
           .measure = measure,
           .seed = 5};
  s.micro = {.items_per_partition = 20'000,
             .global_fraction = 0.3,  // vote fan-out between partitions
             .value_size = 256,       // wide writesets: payload cost matters
             .ops_per_txn = 8,
             .cross_core_fraction = cores > 1 ? 0.2 : 0.0};
  const workload::Built b = workload::build(s);

  sim::fabric_counters().reset();
  const auto t0 = Clock::now();
  const RunResult r = workload::run_experiment(*b.dep, *b.workload, s.run);
  const double wall_sec = seconds_since(t0);
  std::printf("  %-15s sim tput=%.0f tps (sanity: committed work was done)\n", "",
              r.throughput());
  if (auto* rep = report()) {
    rep->row().str("section", std::string(section) + "_sim").num("tput_tps", r.throughput());
  }
  report_metrics(section, wall_sec, b.dep->simulator().events_processed(),
                 b.dep->network().stats());
}

}  // namespace
}  // namespace sdur::bench

int main(int argc, char** argv) {
  using namespace sdur::bench;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  auto& rep = report_open("harness_perf");
  (void)rep;

  // Plain banner, not print_header(): the rows here carry their own
  // "section" key and must not inherit the report-wide one too.
  std::printf("\n==== Fabric wall-clock harness (host performance, not simulated) ====\n");
  {
    // 16-way fan-out, 1 KB payloads, one broadcast per 100 simulated us.
    const sdur::sim::Time horizon = smoke ? sdur::sim::msec(200) : sdur::sim::sec(4);
    run_storm(/*spokes=*/16, /*payload_size=*/1024, horizon);
  }
  {
    const sdur::sim::Time measure = smoke ? sdur::sim::msec(300) : sdur::sim::sec(4);
    const std::uint32_t clients = smoke ? 16 : 96;
    struct Row {
      const char* section;
      const char* preset;
      std::uint32_t cores;
    };
    const Row rows[] = {{"sdur_e2e", "baseline", 1},
                        {"sdur_e2e_all_on", "all-on", 1},
                        {"sdur_e2e_pdur4", "baseline", 4}};
    for (const Row& row : rows) {
      run_e2e(row.section, *sdur::TechniqueConfig::preset(row.preset), row.cores, clients,
              measure);
    }
  }
  return 0;
}

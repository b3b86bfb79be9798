// Figure 1: latency model of the two geo-distributed deployments.
//
// Measures unloaded transaction latencies and compares them to the paper's
// analytic model (delta = intra-region delay, Delta = inter-region delay,
// here EU <-> US-EAST = 45 ms one-way):
//
//                      WAN 1         WAN 2
//   remote reads       2 delta       2 delta
//   local commit       4 delta       2 delta + 2 Delta
//   global commit      4 delta + 2 Delta   3 delta + 3 Delta
//   datacenter failure tolerated     tolerated
//   region failure     not tolerated tolerated
//
// The fault-tolerance rows are demonstrated by actually crashing a region.
#include <cstdio>

#include "common.h"
#include "sdur/deployment.h"
#include "sdur/partitioning.h"

using namespace sdur;
using namespace sdur::bench;

namespace {

struct Probe {
  std::unique_ptr<Deployment> dep;
  Client* client = nullptr;

  explicit Probe(DeploymentSpec::Kind kind) {
    DeploymentSpec spec;
    spec.kind = kind;
    spec.partitions = 2;
    spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
    spec.paxos.log_write_latency = sim::usec(50);  // isolate message delays
    spec.jitter = 0.0;
    dep = std::make_unique<Deployment>(spec);
    for (Key k = 0; k < 10; ++k) dep->load(k, "a");
    for (Key k = 1000; k < 1010; ++k) dep->load(k, "b");
    dep->start();
    client = &dep->add_client(0);
    dep->run_until(sim::msec(1500));  // leaders elected, system quiet
  }

  void run_for(sim::Time t) { dep->run_until(dep->simulator().now() + t); }

  /// One read-modify-write over `keys`; returns commit latency (us).
  sim::Time timed_update(std::vector<Key> keys) {
    sim::Time begin = 0, end = 0;
    client->begin();
    begin = client->now();
    client->read_many(keys, [&, keys](auto) {
      for (Key k : keys) client->write(k, "x");
      client->commit([&](Outcome o) {
        if (o == Outcome::kCommit) end = client->now();
      });
    });
    run_for(sim::sec(10));
    return end == 0 ? -1 : end - begin;
  }

  /// Latency of a single remote read (key in the other partition).
  sim::Time timed_remote_read() {
    sim::Time begin = 0, end = 0;
    client->begin();
    begin = client->now();
    client->read(1001, [&](bool, const std::string&) { end = client->now(); });
    run_for(sim::sec(5));
    return end - begin;
  }

  /// True if a local transaction on partition `p` commits within 5s after
  /// every server in `region` crashed.
  bool survives_region_failure(std::uint16_t region) {
    for (Server* s : dep->servers()) {
      if (dep->network().topology().location(s->self()).region == region) s->crash();
    }
    const sim::Time lat = timed_update({1, 2});
    return lat >= 0;
  }
};

void row(const char* name, double measured_ms, double model_ms) {
  std::printf("  %-22s measured %8.1f ms   model %8.1f ms\n", name, measured_ms, model_ms);
  if (auto* rep = report()) {
    rep->row().str("label", name).num("measured_ms", measured_ms).num("model_ms", model_ms);
  }
}

}  // namespace

int main() {
  report_open("fig1_latency_model");
  const double delta = 1.0;   // intra-region one-way (ms)
  const double Delta = 45.0;  // EU <-> US-EAST one-way (ms)

  std::printf("==== Figure 1: deployment latency model (delta=%.0fms, Delta=%.0fms) ====\n", delta,
              Delta);

  {
    Probe wan1(DeploymentSpec::Kind::kWan1);
    std::printf("\nWAN 1 (majority per partition in its home region):\n");
    row("remote read", sim::to_ms(wan1.timed_remote_read()), 2 * delta);
    row("local termination", sim::to_ms(wan1.timed_update({1, 2})), 4 * delta);
    row("global termination", sim::to_ms(wan1.timed_update({1, 1001})), 4 * delta + 2 * Delta);
  }
  {
    Probe wan2(DeploymentSpec::Kind::kWan2);
    std::printf("\nWAN 2 (one replica per region):\n");
    row("remote read", sim::to_ms(wan2.timed_remote_read()), 2 * delta);
    row("local termination", sim::to_ms(wan2.timed_update({1, 2})), 2 * delta + 2 * Delta);
    row("global termination", sim::to_ms(wan2.timed_update({1, 1001})), 3 * delta + 3 * Delta);
  }

  std::printf("\nFault tolerance (crash every server in one region, then commit):\n");
  {
    Probe wan1(DeploymentSpec::Kind::kWan1);
    const bool ok = wan1.survives_region_failure(sim::kEU);
    std::printf("  WAN 1, region failure:  %s (paper: not tolerated)\n",
                ok ? "SURVIVED (unexpected!)" : "blocked as expected");
  }
  {
    Probe wan2(DeploymentSpec::Kind::kWan2);
    const bool ok = wan2.survives_region_failure(sim::kUSWest);
    std::printf("  WAN 2, region failure:  %s (paper: tolerated)\n",
                ok ? "survived as expected" : "BLOCKED (unexpected!)");
  }
  {
    Probe wan1(DeploymentSpec::Kind::kWan1);
    wan1.dep->server(0, 1).crash();  // one datacenter of P1's home region
    const bool ok = wan1.timed_update({1, 2}) >= 0;
    std::printf("  WAN 1, datacenter failure: %s (paper: tolerated)\n",
                ok ? "survived as expected" : "BLOCKED (unexpected!)");
  }
  return 0;
}

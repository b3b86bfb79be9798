// Geo-deployment example: compares the WAN 1 and WAN 2 deployments from
// the paper (Section IV-B) with the same pair of transactions, and shows
// the effect of the reordering technique on a local transaction stuck
// behind a global one (the convoy the paper studies).
//
//   $ ./examples/geo_deployment
#include <cstdio>

#include "sdur/deployment.h"
#include "sdur/partitioning.h"

using namespace sdur;

namespace {

struct Timings {
  double local_ms = 0;
  double global_ms = 0;
  double convoyed_local_ms = 0;  // local committed right after a global
};

Timings measure(DeploymentSpec::Kind kind, std::uint32_t reorder_threshold) {
  DeploymentSpec spec;
  spec.kind = kind;
  spec.partitions = 2;
  spec.partitioning = std::make_shared<RangePartitioning>(2, 1000);
  spec.server.techniques.reorder_threshold = reorder_threshold;
  spec.jitter = 0.0;
  Deployment dep(spec);
  for (Key k = 0; k < 10; ++k) dep.load(k, "a");
  for (Key k = 1000; k < 1010; ++k) dep.load(k, "b");
  dep.start();

  Client& c1 = dep.add_client(0);
  Client& c2 = dep.add_client(0);
  dep.run_until(sim::msec(1500));
  auto run = [&](sim::Time t) { dep.run_until(dep.simulator().now() + t); };

  Timings t;

  // Plain local transaction.
  {
    c1.begin();
    const sim::Time begin = c1.now();
    c1.read_many({1, 2}, [&](auto) {
      c1.write(1, "x");
      c1.write(2, "x");
      c1.commit([&, begin](Outcome) { t.local_ms = sim::to_ms(c1.now() - begin); });
    });
    run(sim::sec(5));
  }

  // Global transaction, with a local one submitted right behind it: the
  // local is delivered after the global and (in the baseline) must wait
  // for the global's cross-region votes before it can commit.
  {
    c1.begin();
    const sim::Time gbegin = c1.now();
    c1.read_many({3, 1003}, [&](auto) {
      c1.write(3, "y");
      c1.write(1003, "y");
      c1.commit([&, gbegin](Outcome) { t.global_ms = sim::to_ms(c1.now() - gbegin); });
      // Submit the local 5 ms after the global went out.
      c2.begin();
      c2.read_many({4, 5}, [&](auto) {
        dep.simulator().schedule_after(sim::msec(5), [&] {
          const sim::Time lbegin = c2.now();
          c2.write(4, "z");
          c2.write(5, "z");
          c2.commit(
              [&, lbegin](Outcome) { t.convoyed_local_ms = sim::to_ms(c2.now() - lbegin); });
        });
      });
    });
    run(sim::sec(5));
  }
  return t;
}

}  // namespace

int main() {
  std::printf("Latencies for the same transactions under each deployment (ms):\n\n");
  std::printf("%-34s %10s %10s %18s\n", "", "local", "global", "local-behind-global");

  const Timings w1 = measure(DeploymentSpec::Kind::kWan1, 0);
  std::printf("%-34s %10.1f %10.1f %18.1f\n", "WAN 1 (baseline)", w1.local_ms, w1.global_ms,
              w1.convoyed_local_ms);

  const Timings w1r = measure(DeploymentSpec::Kind::kWan1, 64);
  std::printf("%-34s %10.1f %10.1f %18.1f\n", "WAN 1 (reordering, R=64)", w1r.local_ms,
              w1r.global_ms, w1r.convoyed_local_ms);

  const Timings w2 = measure(DeploymentSpec::Kind::kWan2, 0);
  std::printf("%-34s %10.1f %10.1f %18.1f\n", "WAN 2 (baseline)", w2.local_ms, w2.global_ms,
              w2.convoyed_local_ms);

  std::printf(
      "\nReading the table:\n"
      " - WAN 1 locals are fast (4 delta) but a local delivered behind a global\n"
      "   inherits its cross-region wait — the convoy the paper measures as a\n"
      "   ~10x local-latency inflation. Reordering lets the local leap the\n"
      "   pending global and commit at nearly its isolated latency.\n"
      " - WAN 2 locals already pay an inter-region quorum (2 delta + 2 Delta),\n"
      "   so a global ahead of them adds much less.\n");
  return 0;
}

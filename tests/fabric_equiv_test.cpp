// Equivalence and determinism pins for the zero-copy message fabric.
//
// The fabric overhaul (refcounted payload sharing, slab-allocated event
// callables, flattened network tables, pair-wise partition()) must be
// invisible to the simulation: every run is bit-identical to what a
// deep-copying fabric produces. Three pins enforce that:
//
//  1. Golden-digest equivalence: a torture-style chaos run (loss, follower
//     crash/recover, checkpoints, reordering) executed with payload buffer
//     sharing ON and OFF must yield byte-identical replica state, identical
//     NetworkStats and the same event count. Sharing only changes host-side
//     fabric counters, never simulated results.
//  2. RNG-stream regression: a fixed-seed loss+jitter scenario digests every
//     delivery (time, byte) and the network stats against an embedded golden
//     constant. Any change to which dice are rolled per send — e.g. rolling
//     the loss die for a blocked link, or drawing jitter for a dropped
//     message — shifts every later delay and breaks the digest.
//  3. partition() semantics: the pair-wise rewrite must block exactly the
//     cross-group pairs, in both directions, and nothing else.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/fabric_stats.h"
#include "sim/message.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace sdur::sim {
namespace {

/// Restores the process-wide payload sharing knob on scope exit, so a
/// failing test cannot leak sharing=off into later tests.
class SharingGuard {
 public:
  explicit SharingGuard(bool on) : prev_(Payload::buffer_sharing()) {
    Payload::set_buffer_sharing(on);
  }
  ~SharingGuard() { Payload::set_buffer_sharing(prev_); }
  SharingGuard(const SharingGuard&) = delete;
  SharingGuard& operator=(const SharingGuard&) = delete;

 private:
  bool prev_;
};

class RecSink : public Process {
 public:
  RecSink(Network& net, ProcessId id, Location loc) : Process(net, id, "sink", loc) {}

  std::vector<std::pair<Time, std::uint8_t>> received;

 protected:
  void on_message(const Message& m, ProcessId) override {
    received.emplace_back(now(), m.payload.empty() ? 0 : m.payload[0]);
  }
};

Message byte_msg(std::uint8_t b) {
  util::Writer w;
  w.u8(b);
  return {50, std::move(w)};
}

TEST(FabricEquiv, PartitionBlocksExactlyCrossGroupPairs) {
  Simulator sim;
  Topology topo = Topology::lan();
  topo.set_jitter(0);
  Network net(sim, topo, 1);
  std::vector<std::unique_ptr<RecSink>> sinks;
  for (ProcessId pid = 1; pid <= 5; ++pid) {
    sinks.push_back(std::make_unique<RecSink>(net, pid, Location{0, 0}));
  }
  auto sink = [&](ProcessId pid) -> RecSink& { return *sinks[pid - 1]; };

  // {2,4} vs {1,3,5}: exactly the 2*3 cross pairs are cut, both directions.
  net.partition({2, 4});
  for (ProcessId from = 1; from <= 5; ++from) {
    for (ProcessId to = 1; to <= 5; ++to) {
      if (from != to) net.send(from, to, byte_msg(static_cast<std::uint8_t>(from)));
    }
  }
  sim.run();

  auto senders_seen = [&](ProcessId pid) {
    std::vector<std::uint8_t> from;
    for (const auto& [t, b] : sink(pid).received) from.push_back(b);
    std::sort(from.begin(), from.end());
    return from;
  };
  EXPECT_EQ(senders_seen(1), (std::vector<std::uint8_t>{3, 5}));
  EXPECT_EQ(senders_seen(2), (std::vector<std::uint8_t>{4}));
  EXPECT_EQ(senders_seen(3), (std::vector<std::uint8_t>{1, 5}));
  EXPECT_EQ(senders_seen(4), (std::vector<std::uint8_t>{2}));
  EXPECT_EQ(senders_seen(5), (std::vector<std::uint8_t>{1, 3}));
  EXPECT_EQ(net.stats().messages_dropped, 12u) << "2*3 cross pairs, both directions";

  net.heal_all();
  net.send(1, 2, byte_msg(9));
  sim.run();
  ASSERT_EQ(sink(2).received.size(), 2u);
  EXPECT_EQ(sink(2).received.back().second, 9);
}

/// Pins the per-send RNG discipline. The loss die is rolled only when loss
/// is enabled and only for messages not already dropped by isolation or a
/// blocked link; jitter is drawn only for surviving messages. Any change to
/// that order or count shifts every subsequent delay in the run and changes
/// this digest. If this test fails after an intentional fabric change, the
/// determinism contract broke — do not just re-golden the constant.
TEST(FabricEquiv, LossJitterRngStreamMatchesGolden) {
  Simulator sim;
  Topology topo = Topology::ec2_three_regions();
  topo.set_jitter(0.1);
  Network net(sim, topo, 99);
  RecSink a(net, 1, {kEU, 0});
  RecSink b(net, 2, {kUSEast, 0});
  RecSink c(net, 3, {kUSWest, 0});
  net.set_loss_rate(0.05);

  auto burst = [&](int n, std::uint8_t tag) {
    for (int i = 0; i < n; ++i) {
      const ProcessId from = static_cast<ProcessId>(1 + i % 3);
      const ProcessId to = static_cast<ProcessId>(1 + (i + 1) % 3);
      net.send(from, to, byte_msg(static_cast<std::uint8_t>(tag + i % 16)));
    }
  };

  // Phase 1: plain loss + jitter.
  burst(150, 0);
  sim.run();
  // Phase 2: a blocked link and an isolated process. Drops on those paths
  // must consume no dice (short-circuit before the loss roll).
  net.block_link(1, 2);
  net.isolate(3);
  burst(150, 64);
  sim.run();
  // Phase 3: healed again; the stream continues where phase 1 left it.
  net.unblock_link(1, 2);
  net.heal(3);
  burst(100, 128);
  sim.run();

  util::Writer w;
  for (const RecSink* s : {&a, &b, &c}) {
    w.varint(s->received.size());
    for (const auto& [t, byte] : s->received) {
      w.i64(t);
      w.u8(byte);
    }
  }
  w.u64(net.stats().messages_sent);
  w.u64(net.stats().messages_delivered);
  w.u64(net.stats().messages_dropped);
  w.u64(net.stats().bytes_sent);
  w.u64(sim.events_processed());
  w.i64(sim.now());

  const std::uint64_t digest = workload::hash_of(w);
  constexpr std::uint64_t kGolden = 0x202415a40579d692ULL;
  EXPECT_EQ(digest, kGolden) << "RNG stream digest changed: 0x" << std::hex << digest;
}

}  // namespace
}  // namespace sdur::sim

namespace sdur::workload {
namespace {

struct ChaosResult {
  std::uint64_t digest = 0;         // replica state, network accounting, events, clock
  sim::NetworkStats net;            // full per-type message accounting
  std::uint64_t committed = 0;
  std::uint64_t deep_copies = 0;    // host-side fabric counters for this run
  std::uint64_t shares = 0;
};

/// The torture recipe (2 partitions, 3% loss, follower crash/recover
/// churn, frequent checkpoints, reordering on) with payload buffer sharing
/// on or off, digested at a protocol-stable point after the heal and
/// drain. (Equality would hold at any fixed time; stability just makes
/// failures readable.)
ChaosResult run_chaos(bool sharing) {
  sim::SharingGuard guard(sharing);
  sim::fabric_counters().reset();
  const ScenarioResult r = run_scenario(torture_recipe());
  return {r.digest, r.dep->network().stats(), r.committed,
          sim::fabric_counters().payload_deep_copies, sim::fabric_counters().payload_shares};
}

TEST(FabricEquiv, BufferSharingDoesNotChangeSimulation) {
  const ChaosResult shared = run_chaos(true);
  const ChaosResult copied = run_chaos(false);
  const ChaosResult again = run_chaos(true);

  ASSERT_GT(shared.committed, 20u) << "the chaos run made real progress";

  // Sharing ON vs OFF: byte-identical replica state and identical message
  // accounting, event count and clock — the zero-copy fabric is
  // observationally equivalent to a deep-copying one.
  EXPECT_EQ(shared.digest, copied.digest);
  EXPECT_TRUE(shared.net == copied.net) << "NetworkStats diverged";
  EXPECT_EQ(shared.committed, copied.committed);

  // Same seed, same mode: bit-identical rerun.
  EXPECT_EQ(shared.digest, again.digest);
  EXPECT_TRUE(shared.net == again.net);

#if SDUR_FABRIC_COUNTERS
  // The acceptance criterion for the zero-copy fabric: with sharing on, no
  // payload is ever deep-copied — broadcast/vote fan-out and delivery
  // capture all share one buffer.
  EXPECT_EQ(shared.deep_copies, 0u);
  EXPECT_GT(shared.shares, 0u);
  EXPECT_GT(copied.deep_copies, 0u) << "sharing=off must actually deep-copy";
#endif
}

}  // namespace
}  // namespace sdur::workload

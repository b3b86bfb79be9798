// Unit tests for the simulation substrate: event ordering, process CPU
// model, crash semantics, topology latencies and network fault injection.
#include <gtest/gtest.h>

#include "sim/process.h"
#include "sim/simulator.h"

namespace sdur::sim {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.schedule_at(7, [&, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedSchedulingFromHandlers) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] {
    order.push_back(1);
    sim.schedule_after(5, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 15);
}

TEST(Simulator, PastSchedulesClampToNow) {
  Simulator sim;
  sim.schedule_at(100, [&] { sim.schedule_at(50, [] {}); });
  sim.run();
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(1000, [&] { ++fired; });
  sim.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, StopHaltsExecution) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, EventBudgetThrows) {
  Simulator sim;
  sim.set_event_budget(10);
  std::function<void()> loop = [&] { sim.schedule_after(1, loop); };
  sim.schedule_at(0, loop);
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Topology, RegionDelays) {
  Topology t = Topology::ec2_three_regions();
  EXPECT_EQ(t.region_delay(kEU, kUSEast), msec(45));
  EXPECT_EQ(t.region_delay(kUSEast, kUSWest), msec(50));
  EXPECT_EQ(t.region_delay(kEU, kUSWest), msec(85));
  EXPECT_EQ(t.region_delay(kEU, kEU), t.intra_region());
}

TEST(Topology, ProcessDelaysByPlacement) {
  Topology t = Topology::ec2_three_regions();
  t.set_jitter(0);
  t.place(1, {kEU, 0});
  t.place(2, {kEU, 0});
  t.place(3, {kEU, 1});
  t.place(4, {kUSWest, 0});
  EXPECT_EQ(t.base_delay(1, 1), usec(1));          // loopback
  EXPECT_EQ(t.base_delay(1, 2), usec(250));        // same datacenter
  EXPECT_EQ(t.base_delay(1, 3), msec(1));          // same region, other DC
  EXPECT_EQ(t.base_delay(1, 4), msec(85));         // EU -> US-WEST
}

/// Protocol timeouts see the system model's two distances, not the
/// datacenter-level base delay: 0 to itself, delta within a region.
TEST(Topology, DistanceIsRegionGranular) {
  Topology t = Topology::ec2_three_regions();
  t.place(1, {kEU, 0});
  t.place(2, {kEU, 0});
  t.place(3, {kEU, 1});
  t.place(4, {kUSEast, 0});
  t.place(5, {kUSWest, 0});
  EXPECT_EQ(t.distance(1, 1), 0);
  EXPECT_EQ(t.distance(1, 2), t.intra_region()) << "same datacenter";
  EXPECT_EQ(t.distance(1, 3), t.intra_region());
  EXPECT_EQ(t.distance(4, 1), msec(45));
  // From US-EAST: 4 (delta), then 1 and 3 (45 ms, in their given order),
  // then 5 (50 ms).
  EXPECT_EQ(t.nearest_first(kUSEast, {5, 1, 4, 3}), (std::vector<ProcessId>{4, 1, 3, 5}));
}

TEST(Topology, JitterBoundedAndDeterministic) {
  Topology t = Topology::ec2_three_regions();
  t.set_jitter(0.1);
  t.place(1, {kEU, 0});
  t.place(2, {kUSEast, 0});
  util::Rng r1(42), r2(42);
  for (int i = 0; i < 100; ++i) {
    const Time d1 = t.delay(1, 2, r1);
    EXPECT_GE(d1, msec(45));
    EXPECT_LE(d1, msec(45) + msec(45) / 10 + 1);
    EXPECT_EQ(d1, t.delay(1, 2, r2));
  }
}

// A test process that records received payload bytes with timestamps.
class Sink : public Process {
 public:
  Sink(Network& net, ProcessId id, Location loc) : Process(net, id, "sink", loc) {}

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

struct NetFixture {
  Simulator sim;
  Topology topo = Topology::ec2_three_regions();
  std::unique_ptr<Network> net;

  NetFixture() {
    topo.set_jitter(0);
    net = std::make_unique<Network>(sim, topo, 1);
  }
};

TEST(Network, DeliversWithTopologyDelay) {
  NetFixture f;
  Sink a(*f.net, 1, {kEU, 0});
  Sink b(*f.net, 2, {kUSEast, 0});
  f.net->send(1, 2, byte_msg(7));
  f.sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  // one-way delay + receiver service time (10us default)
  EXPECT_EQ(b.received[0].first, msec(45) + usec(10));
  EXPECT_EQ(b.received[0].second, 7);
}

TEST(Network, CrashedReceiverDropsMessages) {
  NetFixture f;
  Sink a(*f.net, 1, {kEU, 0});
  Sink b(*f.net, 2, {kEU, 0});
  b.crash();
  f.net->send(1, 2, byte_msg(1));
  f.sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(f.net->stats().messages_dropped, 1u);
}

TEST(Network, LossRateDropsSome) {
  NetFixture f;
  Sink a(*f.net, 1, {kEU, 0});
  Sink b(*f.net, 2, {kEU, 0});
  f.net->set_loss_rate(0.5);
  for (int i = 0; i < 200; ++i) f.net->send(1, 2, byte_msg(1));
  f.sim.run();
  EXPECT_GT(b.received.size(), 50u);
  EXPECT_LT(b.received.size(), 150u);
}

TEST(Network, BlockAndUnblockLink) {
  NetFixture f;
  Sink a(*f.net, 1, {kEU, 0});
  Sink b(*f.net, 2, {kEU, 0});
  f.net->block_link(1, 2);
  f.net->send(1, 2, byte_msg(1));
  f.sim.run();
  EXPECT_TRUE(b.received.empty());
  f.net->unblock_link(1, 2);
  f.net->send(1, 2, byte_msg(2));
  f.sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, PartitionSplitsGroups) {
  NetFixture f;
  Sink a(*f.net, 1, {kEU, 0});
  Sink b(*f.net, 2, {kEU, 0});
  Sink c(*f.net, 3, {kEU, 0});
  f.net->partition({1});  // {1} vs {2,3}
  f.net->send(1, 2, byte_msg(1));
  f.net->send(2, 3, byte_msg(2));
  f.sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(c.received.size(), 1u);
  f.net->heal_all();
  f.net->send(1, 2, byte_msg(3));
  f.sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, StatsCountTypesAndBytes) {
  NetFixture f;
  Sink a(*f.net, 1, {kEU, 0});
  Sink b(*f.net, 2, {kEU, 0});
  f.net->send(1, 2, byte_msg(1));
  f.net->send(1, 2, byte_msg(2));
  f.sim.run();
  EXPECT_EQ(f.net->stats().messages_sent, 2u);
  EXPECT_EQ(f.net->stats().messages_delivered, 2u);
  EXPECT_EQ(f.net->stats().per_type_count.at(50), 2u);
  EXPECT_GT(f.net->stats().bytes_sent, 0u);
}

TEST(Process, CpuSerializesWork) {
  NetFixture f;
  Sink a(*f.net, 1, {kEU, 0});
  Sink b(*f.net, 2, {kEU, 0});
  b.set_message_service_time(usec(100));
  // Two messages arrive (same DC: 250us); the second must wait for the
  // first's service time.
  f.net->send(1, 2, byte_msg(1));
  f.net->send(1, 2, byte_msg(2));
  f.sim.run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].first, usec(250 + 100));
  EXPECT_EQ(b.received[1].first, usec(250 + 200));
}

TEST(Process, ChargeCpuDelaysSubsequentlyEnqueuedWork) {
  NetFixture f;
  Sink a(*f.net, 1, {kEU, 0});
  struct Worker : Process {
    using Process::Process;
    std::vector<Time> handled_at;
    void on_message(const Message&, ProcessId) override {
      handled_at.push_back(now());
      if (handled_at.size() == 1) charge_cpu(msec(5));
    }
  } w(*f.net, 2, "worker", {kEU, 0});
  f.net->send(1, 2, byte_msg(1));
  // The second message is sent after the first was handled (and charged),
  // so its enqueue sees the busy CPU.
  f.sim.schedule_at(msec(1), [&] { f.net->send(1, 2, byte_msg(2)); });
  f.sim.run();
  ASSERT_EQ(w.handled_at.size(), 2u);
  EXPECT_GE(w.handled_at[1], w.handled_at[0] + msec(5))
      << "work enqueued after a charge waits for the busy period";
}

TEST(Process, TimersSkippedAfterCrash) {
  NetFixture f;
  Sink a(*f.net, 1, {kEU, 0});
  int fired = 0;
  a.set_timer(msec(10), [&] { ++fired; });
  f.sim.schedule_at(msec(5), [&] { a.crash(); });
  f.sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Process, PreCrashTimersStayDeadAfterRecover) {
  NetFixture f;
  Sink a(*f.net, 1, {kEU, 0});
  int fired = 0;
  a.set_timer(msec(10), [&] { ++fired; });
  f.sim.schedule_at(msec(1), [&] { a.crash(); });
  f.sim.schedule_at(msec(2), [&] { a.recover(); });
  f.sim.run();
  EXPECT_EQ(fired, 0) << "epoch bump must cancel pre-crash timers";
}

TEST(Process, MessagesAfterRecoverAreDelivered) {
  NetFixture f;
  Sink a(*f.net, 1, {kEU, 0});
  Sink b(*f.net, 2, {kEU, 0});
  b.crash();
  f.sim.schedule_at(msec(1), [&] { b.recover(); });
  f.sim.schedule_at(msec(2), [&] { f.net->send(1, 2, byte_msg(9)); });
  f.sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].second, 9);
}

TEST(Process, CrashedSendIsNoOp) {
  NetFixture f;
  Sink a(*f.net, 1, {kEU, 0});
  Sink b(*f.net, 2, {kEU, 0});
  a.crash();
  a.send(2, byte_msg(1));
  f.sim.run();
  EXPECT_TRUE(b.received.empty());
}

}  // namespace
}  // namespace sdur::sim

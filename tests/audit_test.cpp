// Invariant audit engine tests (see src/audit/).
//
// The oracle is only trustworthy if it catches real protocol bugs, so these
// tests *inject* two: a certifier that skips its conflict check on one
// replica (breaking certification determinism) and a Paxos acceptor that
// accepts Phase 2A below its promise (breaking acceptor safety). Both must
// produce structured violation reports. The negative test asserts a healthy
// contended run stays clean — the audit layer must not cry wolf. The same
// injected certifier bug must also fail the scenario runner's replica
// convergence check, in every build.
#include <gtest/gtest.h>

#include <algorithm>

#include "audit/audit.h"
#include "paxos/engine.h"
#include "sim/process.h"
#include "workload/scenario.h"

namespace sdur {
namespace {

/// A small contended LAN workload, drained for 5 s.
workload::Scenario small_lan(PartitionId partitions, double global_fraction) {
  workload::Scenario sc;
  sc.spec.kind = DeploymentSpec::Kind::kLan;
  sc.spec.partitions = partitions;
  sc.spec.paxos.log_write_latency = sim::usec(300);
  sc.spec.seed = 31;
  sc.run = {.clients = 12, .warmup = sim::msec(200), .measure = sim::sec(2), .seed = 31};
  sc.micro.items_per_partition = 30;  // tiny keyspace -> real conflicts
  sc.micro.global_fraction = global_fraction;
  sc.drain = sim::sec(5);
  return sc;
}

/// Replica 1 of partition 0 skips its conflict check: it commits
/// transactions the other replicas abort.
void skip_conflict_check_on_replica_1(Deployment& dep) {
  dep.server(0, 1).certifier_for_test().test_skip_conflict_check(true);
}

TEST(ScenarioChecks, SkippedConflictCheckBreaksConvergence) {
  const workload::ScenarioResult r =
      workload::run_scenario(small_lan(1, 0.0), skip_conflict_check_on_replica_1);
  EXPECT_FALSE(r.agree) << "the divergent replica went unnoticed";
  EXPECT_EQ(r.new_violations > 0, SDUR_AUDIT_ON == 1);
  // Later tests in this process start from a clean auditor.
  SDUR_AUDIT(audit::Auditor::instance().reset());
}

#if SDUR_AUDIT_ON

bool has_violation(const char* invariant) {
  const auto& vs = audit::Auditor::instance().violations();
  return std::any_of(vs.begin(), vs.end(),
                     [&](const audit::Violation& v) { return v.invariant == invariant; });
}

TEST(Audit, CleanRunReportsNoViolations) {
  // Two partitions with a global mix exercises every audited path: Paxos
  // decisions, certification, vote exchange, completion, reads.
  workload::run_scenario(small_lan(2, 0.3));
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
}

TEST(Audit, InjectedCertificationBugIsDetected) {
  // Replica 1 of the single partition skips its conflict check: it commits
  // transactions the other replicas abort, so its (delivery index -> vote)
  // function diverges — exactly what certification determinism forbids.
  workload::run_scenario(small_lan(1, 0.0), skip_conflict_check_on_replica_1);
  const auto& auditor = audit::Auditor::instance();
  EXPECT_FALSE(auditor.clean()) << "buggy certifier went undetected";
  EXPECT_TRUE(has_violation("certification-determinism")) << auditor.summary();
  // Reports carry coordinates and recent-event context for debugging.
  ASSERT_FALSE(auditor.violations().empty());
  const audit::Violation& v = auditor.violations().front();
  EXPECT_FALSE(v.detail.empty());
  EXPECT_FALSE(v.context.empty()) << "violation should carry the recent event ring";
}

// Minimal Paxos host (mirrors the harness in paxos_test.cpp).
class AuditPaxosHost : public sim::Process {
 public:
  AuditPaxosHost(sim::Network& net, sim::ProcessId pid, paxos::GroupConfig cfg)
      : sim::Process(net, pid, "paxos-" + std::to_string(pid),
                     sim::Location{0, static_cast<std::uint16_t>(pid)}) {
    engine_ = std::make_unique<paxos::PaxosEngine>(
        *this, std::move(cfg), std::make_unique<paxos::InMemoryDurableLog>(),
        [](const paxos::Value&) {});
  }
  paxos::PaxosEngine& engine() { return *engine_; }

 protected:
  void on_message(const sim::Message& m, sim::ProcessId from) override {
    if (paxos::PaxosEngine::handles(m.type)) engine_->handle_message(m, from);
  }

 private:
  std::unique_ptr<paxos::PaxosEngine> engine_;
};

TEST(Audit, InjectedPaxosBugIsDetected) {
  sim::Simulator sim;
  sim::Topology topo = sim::Topology::lan();
  auto net = std::make_unique<sim::Network>(sim, topo, 3);
  paxos::GroupConfig cfg;
  cfg.members = {1, 2, 3};
  cfg.log_write_latency = sim::usec(200);
  std::vector<std::unique_ptr<AuditPaxosHost>> hosts;
  for (std::uint32_t i = 0; i < 3; ++i) {
    paxos::GroupConfig c = cfg;
    c.self_index = i;
    hosts.push_back(
        std::make_unique<AuditPaxosHost>(*net, static_cast<sim::ProcessId>(i + 1), std::move(c)));
  }
  for (auto& h : hosts) h->engine().start();
  sim.run_until(sim::msec(200));  // member 0 elects itself; promises >= round 1
  ASSERT_TRUE(hosts[0]->engine().is_leader());
  ASSERT_TRUE(audit::Auditor::instance().clean());

  // Host 1's acceptor is sabotaged to accept below its promise; a deposed
  // proposer (member index 2, round 0 — ballot 2, far below the elected
  // leader's round-1 ballot 256) then sends it a Phase 2A.
  hosts[1]->engine().test_accept_stale_ballots(true);
  util::Writer w;
  w.u64(7);
  const paxos::Phase2A stale{paxos::Ballot::make(0, 2), /*instance=*/50, std::move(w).take()};
  hosts[1]->engine().handle_message(stale.to_message(), /*from=*/3);

  const auto& auditor = audit::Auditor::instance();
  EXPECT_FALSE(auditor.clean()) << "stale-ballot accept went undetected";
  EXPECT_TRUE(has_violation("accept-ballot-monotonic")) << auditor.summary();
}

TEST(Audit, AuditorCollectsContextAndResets) {
  audit::Auditor& a = audit::Auditor::instance();
  a.reset();
  SDUR_AUDIT_NOTE(10, "event one");
  SDUR_AUDIT_NOTE(20, "event two");
  SDUR_AUDIT_CHECK("test", "always-false", false, "value " << 42);
  ASSERT_FALSE(a.clean());
  ASSERT_EQ(a.total_violations(), 1u);
  const audit::Violation& v = a.violations().front();
  EXPECT_EQ(v.component, "test");
  EXPECT_EQ(v.invariant, "always-false");
  EXPECT_EQ(v.detail, "value 42");
  ASSERT_EQ(v.context.size(), 2u);
  EXPECT_NE(v.context[1].find("event two"), std::string::npos);
  EXPECT_NE(a.summary().find("always-false"), std::string::npos);
  a.reset();
  EXPECT_TRUE(a.clean());
  EXPECT_TRUE(a.violations().empty());
}

#else  // !SDUR_AUDIT_ON

TEST(Audit, DisabledBuild) { GTEST_SKIP() << "built with SDUR_AUDIT=OFF; audit hooks compiled out"; }

#endif  // SDUR_AUDIT_ON

}  // namespace
}  // namespace sdur

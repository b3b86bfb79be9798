// Vote-exchange batching & piggybacking tests (see DESIGN.md "Vote
// exchange & batching").
//
//  1. Golden pin: with vote_batching off (the default) a chaos scenario
//     (loss, follower churn, checkpoints, reordering, 40% globals over 3
//     partitions) reproduces the pre-batching digest bit-for-bit — the
//     batching layer is provably inert when disabled.
//  2. Batching on, same chaos recipe: the run converges (all pending
//     globals resolve, replicas of each partition agree byte-for-byte),
//     with batched-vote delivery interleaving crash recovery and
//     checkpoint/state-transfer installs.
//  3. Message collapse: against the identical clean workload, batching
//     replaces the per-transaction vote fan-out with VoteBatchMsg flushes
//     and piggybacked rides; the wire-level vote-message count drops.
//  4. Stale votes: late redundant replica votes (and votes replayed by a
//     recovering replica) hit already-completed transactions and are
//     dropped (counted) without re-draining, on both the unicast and the
//     batched path.
//  5. Resend after heal: batched/piggybacked votes lost during a lossy
//     window are re-sourced by the vote-resend/vote-request machinery
//     once the network heals; nothing stays pending.
#include <gtest/gtest.h>

#include <string_view>

#include "chaos_recipe.h"
#include "sdur/messages.h"
#include "workload/driver.h"
#include "workload/microbench.h"

namespace sdur::workload {
namespace {

/// Frozen pre-batching digest of the shared chaos recipe with batching off;
/// captured on the commit preceding the batching layer. Any drift means the
/// default-off configuration is no longer the legacy protocol.
/// Re-pinned once when reads moved from the stable prefix to the per-key
/// read frontier (DESIGN.md "Per-key read frontier"): fresher snapshots
/// commit 84 transactions here instead of 60.
constexpr std::uint64_t kLegacyDigest = 171193667431517724ULL;
constexpr std::uint64_t kLegacyCommitted = 84;

using chaos::ChaosOut;
using chaos::replicas_agree;

/// The shared chaos recipe (tests/chaos_recipe.h) at reorder threshold 24,
/// vote batching on or off.
ChaosOut run_chaos(bool batching) {
  TechniqueConfig t;
  t.reorder_threshold = 24;
  t.vote_batching = batching;
  return chaos::run_chaos(t);
}

TEST(VoteBatch, BatchingOffMatchesLegacyGolden) {
  const ChaosOut r = run_chaos(false);
  EXPECT_EQ(r.digest, kLegacyDigest)
      << "vote_batching=false must stay bit-identical to the pre-batching protocol";
  EXPECT_EQ(r.committed, kLegacyCommitted);
  // The batching layer is fully inert when off: no batch traffic, no
  // batching stats.
  EXPECT_EQ(r.net.per_type_count.at(msgtype::kVoteBatch), 0u);
  EXPECT_EQ(r.net.per_type_count.at(msgtype::kVotePiggyback), 0u);
  EXPECT_EQ(r.stats.vote_batches_sent, 0u);
  EXPECT_EQ(r.stats.votes_batched, 0u);
  EXPECT_EQ(r.stats.votes_piggybacked, 0u);
}

TEST(VoteBatch, BatchingOnConvergesUnderChaosAndCheckpointInstalls) {
  const ChaosOut r = run_chaos(true);
  EXPECT_GT(r.committed, 20u) << "the chaos run made real progress";
  EXPECT_TRUE(r.agree) << "replicas of each partition converged byte-for-byte";
  EXPECT_EQ(r.pending_total, 0u) << "every pending global resolved after heal";
  // The batcher actually carried the vote exchange: explicit batch
  // flushes and free rides both happened, and the legacy per-transaction
  // unicast fan-out is gone outside the resend/vote-request repair path.
  EXPECT_GT(r.stats.votes_batched, 0u);
  EXPECT_GT(r.stats.votes_piggybacked, 0u);
  EXPECT_GT(r.net.per_type_count.at(msgtype::kVoteBatch), 0u);
  EXPECT_GT(r.net.per_type_count.at(msgtype::kVotePiggyback), 0u);
}

struct CleanOut {
  std::uint64_t committed = 0;
  Server::Stats stats;
  sim::NetworkStats net;
  std::uint64_t vote_messages = 0;  // wire messages that exist only to carry votes
};

/// Clean run (no loss, no churn): 3 partitions, 15% globals — the
/// regime the paper's multi-partition experiments run in and the one the
/// ISSUE acceptance bar (>= 4x vote-message reduction) targets.
CleanOut run_clean(bool batching, std::uint32_t clients = 12, sim::Time interval = 0) {
  DeploymentSpec spec;
  spec.partitions = 3;
  spec.partitioning = MicroWorkload::make_partitioning(3, 120);
  spec.server.techniques.reorder_threshold = 16;
  spec.server.techniques.vote_batching = batching;
  if (interval > 0) spec.server.techniques.vote_batch_interval = interval;
  spec.seed = 9;
  Deployment dep(spec);

  RunConfig cfg;
  cfg.clients = clients;
  cfg.seed = 9;
  cfg.warmup = sim::msec(400);
  cfg.measure = sim::sec(2);
  const sim::Time stop_at = cfg.settle + cfg.warmup + cfg.measure;

  MicroConfig mc;
  mc.items_per_partition = 120;
  mc.global_fraction = 0.15;
  mc.keep_running = [&dep, stop_at] { return dep.simulator().now() < stop_at; };
  MicroWorkload wl(mc);

  const RunResult r = run_experiment(dep, wl, cfg);
  dep.run_until(dep.simulator().now() + sim::sec(2));

  CleanOut out;
  for (const auto& [cls, st] : r.classes) out.committed += st.committed;
  out.stats = dep.total_stats();
  out.net = dep.network().stats();
  // Piggybacked votes ride messages that were being sent anyway, so only
  // kVote unicasts and kVoteBatch flushes count as vote-exchange cost.
  out.vote_messages = out.net.per_type_count.at(msgtype::kVote) +
                      out.net.per_type_count.at(msgtype::kVoteBatch);
  return out;
}

TEST(VoteBatch, BatchingCollapsesVoteMessages) {
  // 48 clients, 20ms batch window (2x the 10ms gossip period, so queued
  // votes usually catch a free gossip ride before the flush timer fires).
  // Measured here: ~9x fewer vote messages; the bar is the ISSUE's 4x.
  const CleanOut off = run_clean(false, 48);
  const CleanOut on = run_clean(true, 48, sim::msec(20));

  ASSERT_GT(off.committed, 1000u);
  // Batching must not cost throughput: deferring a vote by less than the
  // time the reorder threshold takes to clear is free.
  EXPECT_GE(on.committed * 100, off.committed * 97)
      << "batching-on committed " << on.committed << " vs off " << off.committed;

  ASSERT_GT(off.vote_messages, 0u);
  EXPECT_GE(off.vote_messages, 4 * on.vote_messages)
      << "vote-message reduction below the 4x acceptance bar: off=" << off.vote_messages
      << " on=" << on.vote_messages;
  EXPECT_LT(on.net.messages_sent, off.net.messages_sent)
      << "total wire traffic must drop, not just shift between types";
  EXPECT_GT(on.stats.votes_piggybacked, 0u) << "votes rode existing traffic";
  EXPECT_GT(on.stats.votes_batched, 0u) << "the flush path carried votes too";
  // Every vote the legacy run unicast is accounted for on the batching
  // run: batched + piggybacked + (rare) repair unicasts cover at least the
  // same per-replica vote deliveries.
  EXPECT_GE(on.stats.votes_batched + on.stats.votes_piggybacked +
                on.net.per_type_count.at(msgtype::kVote),
            off.net.per_type_count.at(msgtype::kVote) / 2);
}

/// Stale votes are the *common* case, not a fault artifact: a global
/// completes once one vote from each remote partition arrives, but every
/// replica of those partitions sends one, so the late arrivals hit
/// already-completed transactions and must be dropped (counted, and
/// crucially without re-running drain_pending — the legacy early-return
/// semantics the golden pin depends on). A crash+recover then replays the
/// log and re-sends votes wholesale, adding more. Both the unicast and
/// the batched delivery path share the check.
void run_stale(bool batching) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = MicroWorkload::make_partitioning(2, 60);
  spec.server.techniques.vote_batching = batching;
  spec.seed = 21;
  Deployment dep(spec);

  RunConfig cfg;
  cfg.clients = 8;
  cfg.seed = 21;
  cfg.warmup = sim::msec(300);
  cfg.measure = sim::sec(1);

  MicroConfig mc;
  mc.items_per_partition = 60;
  mc.global_fraction = 0.5;
  const sim::Time stop_at = cfg.settle + cfg.warmup + cfg.measure;
  mc.keep_running = [&dep, stop_at] { return dep.simulator().now() < stop_at; };
  MicroWorkload wl(mc);
  const RunResult r = run_experiment(dep, wl, cfg);
  std::uint64_t committed = 0;
  for (const auto& [cls, st] : r.classes) committed += st.committed;
  ASSERT_GT(committed, 20u);

  const std::uint64_t steady = dep.total_stats().stale_votes_dropped;
  EXPECT_GT(steady, 0u) << "redundant replica votes arrive after completion and are dropped";

  dep.server(0, 1).crash();
  dep.server(0, 1).recover();
  dep.run_until(dep.simulator().now() + sim::sec(2));
  EXPECT_GT(dep.total_stats().stale_votes_dropped, steady)
      << "votes replayed from the recovered replica's log are dropped and counted";
  EXPECT_TRUE(replicas_agree(dep)) << "stale drops never perturb state";
}

TEST(VoteBatch, StaleReplayedVotesDroppedLegacyPath) { run_stale(false); }

TEST(VoteBatch, StaleReplayedVotesDroppedBatchedPath) { run_stale(true); }

TEST(VoteBatch, ResendRepairsVotesLostWhilePartitioned) {
  DeploymentSpec spec;
  spec.partitions = 3;
  spec.partitioning = MicroWorkload::make_partitioning(3, 60);
  spec.server.techniques.reorder_threshold = 8;
  spec.server.missing_vote_timeout = sim::msec(1500);
  spec.server.techniques.vote_batching = true;
  spec.seed = 13;
  Deployment dep(spec);

  RunConfig cfg;
  cfg.clients = 8;
  cfg.seed = 13;
  cfg.warmup = sim::msec(300);
  cfg.measure = sim::sec(2);
  const sim::Time stop_at = cfg.settle + cfg.warmup + cfg.measure;

  MicroConfig mc;
  mc.items_per_partition = 60;
  mc.global_fraction = 0.3;
  mc.keep_running = [&dep, stop_at] { return dep.simulator().now() < stop_at; };
  MicroWorkload wl(mc);

  // A lossy window mid-run drops batched and piggybacked vote deliveries
  // wholesale; after it heals, the vote-resend / vote-request machinery
  // must re-source everything the outboxes lost.
  dep.simulator().schedule_at(sim::sec(1), [&dep] { dep.network().set_loss_rate(0.5); });
  dep.simulator().schedule_at(sim::sec(2), [&dep] { dep.network().set_loss_rate(0.0); });

  const RunResult r = run_experiment(dep, wl, cfg);
  dep.run_until(dep.simulator().now() + sim::sec(10));

  std::uint64_t committed = 0;
  for (const auto& [cls, st] : r.classes) committed += st.committed;
  EXPECT_GT(committed, 20u);
  std::size_t pending = 0;
  for (Server* s : dep.servers()) pending += s->pending_count();
  EXPECT_EQ(pending, 0u) << "no global stays blocked on votes lost in the lossy window";
  EXPECT_TRUE(replicas_agree(dep));
}

TEST(VoteBatch, CodecRoundTrip) {
  VoteBatchMsg b;
  b.partition = 2;
  b.votes = {{7, Outcome::kCommit}, {9, Outcome::kAbort}, {11, Outcome::kUnknown}};
  {
    const sim::Message m = b.to_message();
    ASSERT_EQ(m.type, msgtype::kVoteBatch);
    util::Reader r(m.payload.bytes());
    const VoteBatchMsg d = VoteBatchMsg::decode(r);
    EXPECT_EQ(d.partition, b.partition);
    ASSERT_EQ(d.votes.size(), b.votes.size());
    for (std::size_t i = 0; i < b.votes.size(); ++i) {
      EXPECT_EQ(d.votes[i].id, b.votes[i].id);
      EXPECT_EQ(d.votes[i].vote, b.votes[i].vote);
    }
  }
  VotePiggybackMsg env;
  env.inner_type = msgtype::kGossipSC;
  env.inner_payload = util::Bytes{1, 2, 3};
  env.batch = b;
  const sim::Message m = env.to_message();
  ASSERT_EQ(m.type, msgtype::kVotePiggyback);
  util::Reader r(m.payload.bytes());
  const VotePiggybackMsg d = VotePiggybackMsg::decode(r);
  EXPECT_EQ(d.inner_type, env.inner_type);
  EXPECT_EQ(d.inner_payload, env.inner_payload);
  EXPECT_EQ(d.batch.partition, b.partition);
  ASSERT_EQ(d.batch.votes.size(), b.votes.size());
  EXPECT_EQ(d.batch.votes[1].id, 9u);
  EXPECT_EQ(d.batch.votes[1].vote, Outcome::kAbort);
}

}  // namespace
}  // namespace sdur::workload

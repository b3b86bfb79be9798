// Vote-exchange batching & piggybacking tests (see DESIGN.md "Vote
// exchange & batching").
//
//  1. Golden pin: with vote_batching off (the default) the chaos recipe
//     reproduces the pre-batching digest bit-for-bit — the batching layer
//     is provably inert when disabled (tests/legacy_golden.h).
//  2. Batching on, the chaos recipe (loss, follower churn, checkpoints,
//     reordering, 40% globals over 3 partitions): the run converges (all
//     pending globals resolve, replicas of each partition agree
//     byte-for-byte), with batched-vote delivery interleaving crash
//     recovery and checkpoint/state-transfer installs.
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

#include "legacy_golden.h"
#include "sdur/messages.h"
#include "workload/scenario.h"

namespace sdur::workload {
namespace {

/// Digest of the batching-on run: pins the batch and piggyback send order.
/// Re-pinned once for the session-table checkpoint format: StateTransfer
/// bytes shrank (49700 -> 45876); replica state and every other counter
/// are unchanged.
/// Re-pinned once when retries began failing over, on the terms of the
/// legacy pin (tests/legacy_golden.h).
/// Re-pinned once when clients began choosing replicas by miss count, on
/// the legacy pin's terms.
/// Re-pinned once when contacts began choosing a remote partition's replica
/// by silence, on the legacy pin's terms.
/// Re-pinned once when recovered replicas began answering clients only
/// once caught up and contacts began re-sending a remote part on their own
/// timer, on the legacy pin's terms.
/// Re-pinned once when reads began retrying after one round trip plus a
/// slack, followers began campaigning from a timer at their suspicion
/// deadline and checkpoints began covering only applied deliveries, on
/// the legacy pin's terms.
constexpr std::uint64_t kBatchingOnDigest = 0xb02bc38d4bfad486ULL;

TEST(VoteBatch, BatchingOffMatchesLegacyGolden) {
  const ScenarioResult r = run_legacy_golden();
  // The batching layer is fully inert when off: no batch traffic, no
  // batching stats.
  const sim::NetworkStats& net = r.dep->network().stats();
  EXPECT_EQ(net.per_type_count.at(msgtype::kVoteBatch), 0u);
  EXPECT_EQ(net.per_type_count.at(msgtype::kVotePiggyback), 0u);
  const Server::Stats st = r.dep->total_stats();
  EXPECT_EQ(st.vote_batches_sent, 0u);
  EXPECT_EQ(st.votes_batched, 0u);
  EXPECT_EQ(st.votes_piggybacked, 0u);
}

TEST(VoteBatch, BatchingOnConvergesUnderChaosAndCheckpointInstalls) {
  const ScenarioResult r =
      run_scenario(chaos_recipe(TechniqueConfig{.reorder_threshold = 24, .vote_batching = true}));
  EXPECT_EQ(r.digest, kBatchingOnDigest) << "vote batch/piggyback send order changed";
  EXPECT_GT(r.committed, 20u) << "the chaos run made real progress";
  EXPECT_TRUE(r.agree) << "replicas of each partition converged byte-for-byte";
  EXPECT_TRUE(r.drained) << "every pending global resolved after heal";
  // The batcher actually carried the vote exchange: explicit batch
  // flushes and free rides both happened, and the legacy per-transaction
  // unicast fan-out is gone outside the resend/vote-request repair path.
  const Server::Stats st = r.dep->total_stats();
  const sim::NetworkStats& net = r.dep->network().stats();
  EXPECT_GT(st.votes_batched, 0u);
  EXPECT_GT(st.votes_piggybacked, 0u);
  EXPECT_GT(net.per_type_count.at(msgtype::kVoteBatch), 0u);
  EXPECT_GT(net.per_type_count.at(msgtype::kVotePiggyback), 0u);
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
  Scenario sc;
  sc.spec.partitions = 3;
  sc.spec.server.techniques.reorder_threshold = 16;
  sc.spec.server.techniques.vote_batching = batching;
  if (interval > 0) sc.spec.server.techniques.vote_batch_interval = interval;
  sc.spec.seed = 9;
  sc.run = {.clients = clients, .warmup = sim::msec(400), .measure = sim::sec(2), .seed = 9};
  sc.micro = {.items_per_partition = 120, .global_fraction = 0.15};
  sc.drain = sim::sec(2);
  const ScenarioResult r = run_scenario(sc);

  CleanOut out;
  out.committed = r.committed;
  out.stats = r.dep->total_stats();
  out.net = r.dep->network().stats();
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
  Scenario sc;
  sc.spec.partitions = 2;
  sc.spec.server.techniques.vote_batching = batching;
  sc.spec.seed = 21;
  sc.run = {.clients = 8, .warmup = sim::msec(300), .measure = sim::sec(1), .seed = 21};
  sc.micro = {.items_per_partition = 60, .global_fraction = 0.5};
  const ScenarioResult r = run_scenario(sc);
  ASSERT_GT(r.committed, 20u);
  Deployment& dep = *r.dep;

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
  Scenario sc;
  sc.spec.partitions = 3;
  sc.spec.server.techniques.reorder_threshold = 8;
  sc.spec.server.missing_vote_timeout = sim::msec(1500);
  sc.spec.server.techniques.vote_batching = true;
  sc.spec.seed = 13;
  sc.run = {.clients = 8, .warmup = sim::msec(300), .measure = sim::sec(2), .seed = 13};
  sc.micro = {.items_per_partition = 60, .global_fraction = 0.3};
  // A lossy window mid-run drops batched and piggybacked vote deliveries
  // wholesale; after it heals, the vote-resend / vote-request machinery
  // must re-source everything the outboxes lost.
  sc.faults.loss_windows = {{.rate = 0.5, .from = sim::sec(1), .to = sim::sec(2)}};
  sc.drain = sim::sec(10);
  const ScenarioResult r = run_scenario(sc);

  EXPECT_GT(r.committed, 20u);
  EXPECT_TRUE(r.drained) << "no global stays blocked on votes lost in the lossy window";
  EXPECT_TRUE(r.agree);
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

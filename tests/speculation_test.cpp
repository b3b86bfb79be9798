// Speculative global commit tests (see DESIGN.md "Speculative global
// commit", techniques.speculation).
//
//  1. Randomized equivalence: a speculating certifier + MVStore — globals
//     leave the pending list at delivery without writing and resolve out
//     of order as their (adversarially timed) votes arrive, a commit
//     inserting its writes below those of blind-writing locals that
//     committed meanwhile — produces certification verdicts, versions,
//     slot statuses and a final store equal to the delivery-order serial
//     reference that waits for every vote.
//  2. Chaos convergence: the shared chaos recipe (loss, follower
//     churn, checkpoints, 40% globals over 3 partitions) with speculation
//     on converges — replicas byte-equal, no unresolved slot left, real
//     speculative commits AND aborts happened.
//  3. Golden pin: the same recipe with speculation off (the default)
//     reproduces the pre-speculation digest bit-for-bit — the layer is
//     provably inert when disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>

#include "audit/audit.h"
#include "chaos_recipe.h"
#include "sdur/certifier.h"
#include "storage/mvstore.h"
#include "util/rng.h"

namespace sdur {
namespace {

PartTx make_tx(TxId id, bool global, std::vector<Key> rs, std::vector<Key> ws, Version snapshot) {
  PartTx t;
  t.kind = PartTx::Kind::kTxn;
  t.id = id;
  t.involved = global ? std::vector<PartitionId>{0, 1} : std::vector<PartitionId>{0};
  t.snapshot = snapshot;
  t.readset = util::KeySet::exact(std::move(rs));
  std::vector<Key> wk = ws;
  t.write_keys = util::KeySet::exact(std::move(wk));
  for (Key k : ws) t.writes.push_back(WriteOp{k, std::to_string(id)});
  return t;
}

// --- Randomized speculation == delivery-order-serial equivalence -------------

// Drives a speculating certifier + MVStore against a delivery-order
// serial reference under adversarial vote timing. The spec arm pops
// every global at the head without writing and resolves it out of order
// when its votes arrive (insert on commit, nothing on abort); locals
// commit immediately, possibly above a write that a speculated global
// inserts later. The reference arm parks every global at the head until
// its votes arrive. Verdicts, versions, slot statuses and the final store
// must match the reference exactly.
TEST(SpecProperty, RandomizedEquivalenceWithAdversarialVotes) {
  Certifier on(4000, 1, /*ooo_bypass=*/false);
  Certifier off(4000, 1, /*ooo_bypass=*/false);
  storage::MVStore store;
  // Delivery-order serial reference: final value of a key is the write of
  // its highest-version committed writer, fixed at certification time.
  std::map<Key, std::pair<Version, std::string>> ref;

  util::Rng rng(31);
  std::uint64_t d = 0;
  bool healed = false;
  // Vote outcome and arrival time are deterministic properties of the
  // transaction, shared by both arms.
  auto vote_commits = [](TxId id) { return id % 7 != 0; };
  auto commits = [&](const PartTx& t) { return !t.is_global() || vote_commits(t.id); };
  std::unordered_map<TxId, std::uint64_t> vote_at;
  auto votes_arrived = [&](TxId id) { return healed || vote_at.at(id) <= d; };

  struct SpecRec {
    TxId id;
    std::vector<WriteOp> writes;
  };
  std::map<Version, SpecRec> outstanding;
  std::uint64_t speculated = 0, committed = 0, aborted = 0, below_newer = 0;

  auto drain_spec = [&] {
    while (!on.empty()) {
      const PendingEntry e = on.pop_head();
      if (e.tx.is_global()) {
        outstanding.emplace(e.version, SpecRec{e.tx.id, e.tx.writes});
        ++speculated;
      } else {
        for (const auto& op : e.tx.writes) store.put(op.key, op.value, e.version);
        on.resolve(e, true);
      }
    }
    // Out-of-order resolution: each speculated global resolves on its own
    // votes, regardless of delivery order.
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      if (!votes_arrived(it->second.id)) {
        ++it;
        continue;
      }
      const bool ok = vote_commits(it->second.id);
      if (ok) {
        for (const auto& op : it->second.writes) {
          const auto latest = store.get_latest(op.key);
          if (latest && latest->version > it->first) ++below_newer;
          store.insert(op.key, op.value, it->first);
        }
        ++committed;
      } else {
        ++aborted;
      }
      on.resolve(it->first, it->second.id, ok);
      it = outstanding.erase(it);
    }
  };
  auto drain_off = [&] {
    while (!off.empty() && (!off.head().tx.is_global() || votes_arrived(off.head().tx.id))) {
      const PendingEntry e = off.pop_head();
      off.resolve(e, commits(e.tx));
    }
  };

  for (int i = 0; i < 1500; ++i) {
    ++d;
    const bool global = rng.chance(0.3);
    const bool blind = !global && rng.chance(0.35);
    const Key k1 = rng.below(16);
    const Key k2 = rng.below(16);
    Version snap = std::min(on.stable(), off.stable());
    if (rng.chance(0.2)) snap = std::max<Version>(0, snap - static_cast<Version>(rng.below(4)));
    PartTx t = blind ? make_tx(1000 + static_cast<TxId>(i), false, {}, {k1}, snap)
                     : make_tx(1000 + static_cast<TxId>(i), global, {k1, k2}, {k1}, snap);
    if (!blind && rng.chance(0.15)) t.readset = util::KeySet::bloom({k1, k2});
    if (global) vote_at[t.id] = d + 1 + rng.below(40);

    const auto ra = on.process(t, d, d);
    const auto rb = off.process(t, d, d);
    ASSERT_EQ(ra.outcome, rb.outcome) << "speculation changed a verdict at tx " << t.id;
    if (ra.outcome == Outcome::kCommit) {
      ASSERT_EQ(ra.version, rb.version);
      if (commits(t)) {
        for (const auto& op : t.writes) {
          auto& slot = ref[op.key];
          if (ra.version > slot.first) slot = {ra.version, op.value};
        }
      }
    }
    drain_spec();
    drain_off();
  }

  // Heal: every vote arrives; both arms resolve everything.
  healed = true;
  drain_spec();
  drain_off();
  ASSERT_TRUE(on.empty());
  ASSERT_TRUE(off.empty());
  ASSERT_TRUE(outstanding.empty());

  EXPECT_GT(speculated, 100u) << "globals really left the pending list before their votes";
  EXPECT_EQ(committed + aborted, speculated);
  EXPECT_GT(aborted, 10u) << "vote aborts really happened";
  EXPECT_GT(below_newer, 0u) << "some commits inserted below later committed writes";

  EXPECT_EQ(on.certified(), off.certified());
  EXPECT_EQ(on.stable(), off.stable());
  for (Version v = 1; v <= on.certified(); ++v) {
    if (on.slot(v) == nullptr || off.slot(v) == nullptr) continue;
    ASSERT_EQ(on.slot(v)->status, off.slot(v)->status) << "version " << v;
    ASSERT_EQ(on.slot(v)->txid, off.slot(v)->txid);
  }
  // The store the speculative schedule built equals the delivery-order
  // serial reference, key for key.
  ASSERT_EQ(store.key_count(), ref.size());
  for (const auto& [key, expect] : ref) {
    const auto got = store.get_latest(key);
    ASSERT_TRUE(got.has_value()) << "key " << key;
    EXPECT_EQ(got->version, expect.first) << "key " << key;
    EXPECT_EQ(got->value, expect.second) << "key " << key;
  }
}

// --- End-to-end chaos + golden pin -------------------------------------------

namespace e2e {

/// Frozen pre-speculation digest of the shared chaos recipe with
/// speculation off (the same run as vote_batch_test / convoy_bypass_test). Any
/// drift means the default-off configuration is no longer the legacy
/// protocol.
/// Re-pinned once when reads moved from the stable prefix to the per-key
/// read frontier (DESIGN.md "Per-key read frontier"): fresher snapshots
/// commit 84 transactions here instead of 60.
/// Re-pinned once when the checkpoint's dedup sections became the
/// per-client session table: StateTransfer bytes shrank (94864 -> 86110);
/// replica state and every other counter are unchanged.
/// Re-pinned once when an abort request for an undelivered transaction
/// began completing it: the aborted id enters the checkpointed outcome
/// history, so StateTransfer bytes grew (86110 -> 86119, same 17
/// transfers); replica state and every message count are unchanged.
/// Re-pinned once when retries began failing over (DESIGN.md "Failover"):
/// attempt i of a request goes to the partition's replica i % 3, and a
/// commit retry at a replica that delivered a global re-forwards a missing
/// part. Under the recipe's loss and follower crashes the message schedule
/// changes, and with it the fabric RNG stream: 98 commits instead of 84.
/// Re-pinned once when clients began choosing replicas by miss count
/// (DESIGN.md "Failover"): a read lost to the recipe's 2% loss charges
/// its replica a miss, so the client's next requests go to another replica
/// with a probe copy to the nearest one, and the message schedule and the
/// fabric RNG stream change: 86 commits instead of 98. (Over 24 reseeded
/// runs of this recipe the commits summed 2155 before and 2181 after.)
/// Re-pinned once when contacts began choosing a remote partition's replica
/// by silence (DESIGN.md "Failover"): a contact that heard another replica
/// of a partition within ten gossip periods but nothing from replica 0
/// forwards to that replica. Under the recipe's 2% loss a partition whose
/// head stalls stops gossiping and a lost vote leaves replica 0 silent, so
/// one forward goes to replica 1, which relays it (at 1.17 s), and the
/// message schedule and the fabric RNG stream change: 85 commits instead
/// of 86. (Over 24 runs reseeded 1..24 the commits summed 2209 before and
/// 2331 after.) The derived election timing and forward parking move
/// nothing here: the recipe crashes no leader.
/// Re-pinned once when recovered replicas began answering clients only
/// once caught up, catch-up kept one request outstanding, and contacts
/// began re-sending a remote part on their own timer (DESIGN.md
/// "Failover"): the recipe's recovering followers drop the clients' probe
/// copies while they replay and ask for each catch-up chunk once, and a
/// part lost to the 2% loss goes out again 2·δ + 100 ms after it was sent
/// when nothing came from its replica in the last 100 ms, so the message
/// schedule and the fabric RNG stream change: 100 commits instead of 85
/// (94 with the recovery changes alone).
/// Re-pinned once when reads began retrying after one round trip plus
/// 20 ms (the recipe's own 300 ms went with the setting), a retry to a
/// replica heard from since the request reached it charged it no miss,
/// checkpoints began covering only applied deliveries, and followers
/// began campaigning from a timer at their suspicion deadline: under the
/// 2% loss a lost read goes out again some 280 ms sooner, and a follower
/// that lost a heartbeat arms a timer that fires without campaigning (the
/// run still holds one election per partition), so the message schedule,
/// the event count and the fabric RNG stream change: 118 commits instead
/// of 100. A scratch build with those four changes undone gave back every
/// earlier pin. Over 24 runs reseeded 1..24 the commits summed 2307
/// before and 2455 after; one of the 24 (seed 8) held a fourth election,
/// two heartbeats lost in a row.
constexpr std::uint64_t kLegacyDigest = 6145334633699082793ULL;
constexpr std::uint64_t kLegacyCommitted = 118;
/// Digest of the speculation-on run: pins the speculation and finalize
/// order, which feeds the send order and so the fabric RNG.
/// Re-pinned once when speculated writes moved from the store into the
/// round until finalize: checkpoints no longer carry unresolved speculated
/// versions, so StateTransfer bytes shrank (55915 -> 55847); replica
/// state and every other counter are unchanged. Re-pinned again for the
/// session-table checkpoint format (55847 -> 49071), on the same terms,
/// and when abort requests began completing undelivered transactions
/// (49071 -> 49089, the aborted ids in the outcome history).
/// Re-pinned once when retries began failing over, on the legacy pin's
/// terms.
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
constexpr std::uint64_t kSpeculationOnDigest = 0x9af848ba57054446ULL;

using chaos::ChaosOut;

/// The shared chaos recipe (tests/chaos_recipe.h) with speculation on or off.
/// `reorder_threshold` defaults to the recipe's 24 (the golden pin needs
/// the exact legacy configuration); the technique-on run uses 0.
ChaosOut run_chaos(bool speculation, std::uint32_t reorder_threshold = 24) {
  TechniqueConfig t;
  t.reorder_threshold = reorder_threshold;
  t.speculation = speculation;
  return chaos::run_chaos(t);
}

TEST(Speculation, SpeculationOffMatchesLegacyGolden) {
  const ChaosOut r = run_chaos(false);
  EXPECT_EQ(r.digest, kLegacyDigest)
      << "speculation=false must stay bit-identical to the pre-speculation protocol";
  EXPECT_EQ(r.committed, kLegacyCommitted);
  // The speculation layer is fully inert when off.
  EXPECT_EQ(r.stats.speculated_globals, 0u);
  EXPECT_EQ(r.stats.spec_commits, 0u);
  EXPECT_EQ(r.stats.spec_aborts, 0u);
}

TEST(Speculation, SpeculationOnConvergesUnderChaosAndCheckpointInstalls) {
  const ChaosOut r = run_chaos(true, /*reorder_threshold=*/0);
  EXPECT_EQ(r.digest, kSpeculationOnDigest) << "speculative completion order changed";
  EXPECT_GT(r.committed, 20u) << "the chaos run made real progress";
  EXPECT_TRUE(r.agree) << "replicas of each partition converged byte-for-byte";
  EXPECT_EQ(r.pending_total, 0u) << "every pending global resolved after heal";
  EXPECT_EQ(r.unresolved_slots, 0) << "no speculation outlived its votes";
  EXPECT_GT(r.stats.speculated_globals, 0u) << "globals really speculated under chaos";
  EXPECT_GT(r.stats.spec_commits, 0u);
  EXPECT_GT(r.stats.spec_aborts, 0u) << "real speculation aborts happened under chaos";
#if SDUR_AUDIT_ON
  // Version order, resolve-once, certification determinism and the rest of
  // the in-run cross-checks all held while speculating under crashes,
  // losses and checkpoint installs.
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
#endif
}

}  // namespace e2e

}  // namespace
}  // namespace sdur

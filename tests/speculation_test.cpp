// Speculative global commit tests (see DESIGN.md "Speculative global
// commit", techniques.speculation).
//
//  1. Unit coverage of the MVStore speculative layer: put_speculative /
//     promote / rollback (including mid-chain erase with later versions
//     already applied on top), chained speculative versions on one key,
//     and mark_speculative re-registration after a checkpoint install.
//  2. Injected missed-rollback bug: a speculative version left behind
//     below the resolved floor trips audit_spec_floor — it throws and, in
//     audited builds, records a structured "spec-floor" violation first.
//  3. Randomized equivalence: a speculating certifier + MVStore — globals
//     apply speculative writes at delivery and resolve out of order as
//     their (adversarially timed) votes arrive, with blind-writing locals
//     committing on top of outstanding speculative versions — produces
//     certification verdicts, versions, slot statuses and a final store
//     equal to the delivery-order serial reference that waits for every
//     vote. Vote-aborted globals roll back mid-chain under later writes.
//  4. Chaos convergence: the shared chaos recipe (loss, follower
//     churn, checkpoints, 40% globals over 3 partitions) with speculation
//     on converges — replicas byte-equal, no outstanding speculative
//     versions, real finalizes AND real rollbacks happened.
//  5. Golden pin: the same recipe with speculation off (the default)
//     reproduces the pre-speculation digest bit-for-bit — the layer is
//     provably inert when disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
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

// --- MVStore speculative-layer unit tests ------------------------------------

TEST(SpecStore, PutSpeculativePromote) {
  storage::MVStore store;
  store.put_speculative(5, "a", 1);
  store.put_speculative(6, "b", 1);
  EXPECT_EQ(store.speculative_count(), 1u) << "one undo record per version";
  // Speculative versions are readable immediately — that is the point:
  // later transactions certify and read against them.
  EXPECT_EQ(store.get_latest(5)->value, "a");
  EXPECT_EQ(store.get(6, 1)->value, "b");
  EXPECT_GT(store.promote(1), 0u);
  EXPECT_EQ(store.speculative_count(), 0u);
  EXPECT_EQ(store.promote(1), 0u) << "promote is idempotent once discharged";
  EXPECT_EQ(store.get_latest(5)->value, "a") << "promoted writes are permanent";
  EXPECT_EQ(store.rollback(1), 0u) << "a promoted version can no longer roll back";
  EXPECT_EQ(store.get_latest(5)->value, "a");
}

TEST(SpecStore, RollbackErasesMidChainUnderLaterWrites) {
  storage::MVStore store;
  store.load(5, "init");
  store.put_speculative(5, "spec", 1);  // global speculates {5, 6}
  store.put_speculative(6, "spec", 1);
  store.put(5, "later", 2);  // a local commits on top of the speculative version
  EXPECT_EQ(store.rollback(1), 2u) << "both chain entries erased";
  EXPECT_EQ(store.speculative_count(), 0u);
  // Key 5: the speculative version vanished from the middle of the chain;
  // the later committed write survives and version order stays intact.
  EXPECT_EQ(store.get_latest(5)->value, "later");
  EXPECT_EQ(store.get(5, 1)->value, "init") << "snapshot 1 no longer sees the rolled-back write";
  ASSERT_EQ(store.versions_of(5)->size(), 2u);
  // Key 6: the speculative version was its only one.
  EXPECT_FALSE(store.get_latest(6).has_value());
  store.put(5, "next", 3);  // the version-order audit still accepts new writes
  EXPECT_EQ(store.get_latest(5)->value, "next");
}

TEST(SpecStore, ChainedSpeculationsResolveIndependently) {
  // Two speculated globals write the same key back to back (head-only
  // speculation keeps their versions ascending). Either may resolve
  // first, in either direction.
  storage::MVStore store;
  store.put_speculative(7, "first", 1);
  store.put_speculative(7, "second", 2);
  EXPECT_EQ(store.speculative_count(), 2u);
  EXPECT_EQ(store.rollback(1), 1u) << "erase below an outstanding speculative version";
  EXPECT_GT(store.promote(2), 0u);
  EXPECT_EQ(store.speculative_count(), 0u);
  ASSERT_TRUE(store.get_latest(7).has_value());
  EXPECT_EQ(store.get_latest(7)->value, "second");
  EXPECT_EQ(store.versions_of(7)->size(), 1u);

  storage::MVStore other;
  other.put_speculative(7, "first", 1);
  other.put_speculative(7, "second", 2);
  EXPECT_GT(other.promote(1), 0u);
  EXPECT_EQ(other.rollback(2), 1u);
  EXPECT_EQ(other.get_latest(7)->value, "first");
}

TEST(SpecStore, MarkSpeculativeReregistersAfterInstall) {
  // Checkpoint install writes the chains wholesale; mark_speculative
  // rebuilds only the undo log so a rollback still works afterwards.
  storage::MVStore store;
  store.put(9, "spec", 4);  // as install would: plain chain write
  store.mark_speculative(4, {9});
  EXPECT_EQ(store.speculative_count(), 1u);
  EXPECT_EQ(store.rollback(4), 1u);
  EXPECT_FALSE(store.get_latest(9).has_value());
}

// --- Injected bug: a missed rollback must not pass silently ------------------

TEST(SpecStore, MissedRollbackCaughtByFloorAudit) {
#if SDUR_AUDIT_ON
  audit::Auditor::instance().reset();
#endif
  storage::MVStore store;
  store.put_speculative(5, "x", 3);
  store.audit_spec_floor(2);  // outstanding version 3 above the floor: fine
  // The resolved prefix reaches the speculative version without a
  // promote/rollback having discharged it — exactly what a missed
  // rollback looks like. Fatal, and audited first.
  EXPECT_THROW(store.audit_spec_floor(3), std::logic_error);
  EXPECT_THROW(store.audit_spec_floor(7), std::logic_error);
#if SDUR_AUDIT_ON
  const auto& vs = audit::Auditor::instance().violations();
  EXPECT_TRUE(std::any_of(vs.begin(), vs.end(),
                          [](const audit::Violation& v) {
                            return std::string_view(v.invariant) == "spec-floor";
                          }))
      << audit::Auditor::instance().summary();
  audit::Auditor::instance().reset();
#endif
  EXPECT_GT(store.promote(3), 0u);
  store.audit_spec_floor(7);  // discharged: any floor is fine again
}

// --- Randomized speculation == delivery-order-serial equivalence -------------

// Drives a speculating certifier + MVStore against a delivery-order
// serial reference under adversarial vote timing. The spec arm pops
// every global at the head, applies its writes speculatively, and
// resolves it out of order when its votes arrive (promote on commit,
// mid-chain rollback on abort); locals commit immediately on top of the
// outstanding speculative versions. The reference arm parks every global
// at the head until its votes arrive. Verdicts, versions, slot statuses
// and the final store must match the reference exactly.
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
  std::uint64_t speculated = 0, finalized = 0, rolled_back = 0, midchain = 0;

  auto drain_spec = [&] {
    while (!on.empty()) {
      const PendingEntry e = on.pop_head();
      if (e.tx.is_global()) {
        for (const auto& op : e.tx.writes) store.put_speculative(op.key, op.value, e.version);
        outstanding.emplace(e.version, SpecRec{e.tx.id, e.tx.writes});
        ++speculated;
      } else {
        for (const auto& op : e.tx.writes) store.put(op.key, op.value, e.version);
        on.resolve(e, true);
      }
    }
    // Out-of-order finalize/rollback: each speculated global resolves on
    // its own votes, regardless of delivery order.
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      if (!votes_arrived(it->second.id)) {
        ++it;
        continue;
      }
      const bool ok = vote_commits(it->second.id);
      if (ok) {
        EXPECT_GT(store.promote(it->first), 0u);
        ++finalized;
      } else {
        bool mid = false;
        for (const auto& op : it->second.writes) {
          const auto latest = store.get_latest(op.key);
          if (latest && latest->version > it->first) mid = true;
        }
        EXPECT_GT(store.rollback(it->first), 0u);
        ++rolled_back;
        if (mid) ++midchain;
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
  EXPECT_EQ(store.speculative_count(), 0u) << "no undo record outlives its votes";

  EXPECT_GT(speculated, 100u) << "globals really applied writes before their votes";
  EXPECT_EQ(finalized + rolled_back, speculated);
  EXPECT_GT(rolled_back, 10u) << "vote aborts really exercised rollback";
  EXPECT_GT(midchain, 0u) << "some rollbacks erased below later committed writes";

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
constexpr std::uint64_t kLegacyDigest = 171193667431517724ULL;
constexpr std::uint64_t kLegacyCommitted = 84;

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
  EXPECT_GT(r.committed, 20u) << "the chaos run made real progress";
  EXPECT_TRUE(r.agree) << "replicas of each partition converged byte-for-byte";
  EXPECT_EQ(r.pending_total, 0u) << "every pending global resolved after heal";
  EXPECT_EQ(r.spec_outstanding, 0u) << "no speculative version outlived its votes";
  EXPECT_GT(r.stats.speculated_globals, 0u) << "globals really speculated under chaos";
  EXPECT_GT(r.stats.spec_commits, 0u);
  EXPECT_GT(r.stats.spec_aborts, 0u) << "real rollbacks happened under chaos";
#if SDUR_AUDIT_ON
  // Version order, spec-floor, certification determinism and the rest of
  // the in-run cross-checks all held while speculating under crashes,
  // losses and checkpoint installs.
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
#endif
}

}  // namespace e2e

}  // namespace
}  // namespace sdur

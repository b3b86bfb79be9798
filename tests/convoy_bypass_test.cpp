// Out-of-order local commit tests (see DESIGN.md "Out-of-order local
// commit", techniques.ooo_bypass).
//
//  1. Unit coverage of the park gate: disjoint locals bypass pending
//     globals, write/read-conflicting locals park until the completed-
//     global watermark reaches their bound, parked locals pass their bound
//     on to later write-conflicting locals (inheritance), and checkpoint
//     install recomputes every bound from the restored pending list.
//  2. Randomized equivalence: a bypass-enabled certifier driving a real
//     MVStore — with blind writes, bloom readsets, adversarial vote timing
//     and mid-stream encode/install round trips — produces certification
//     verdicts, versions, slot statuses and a final store byte-equal to
//     the delivery-order serial reference. A single version regression in
//     the store throws, so an unsound bypass cannot pass silently.
//  3. Chaos convergence: the shared chaos recipe (loss, follower
//     churn, checkpoints, reordering, 40% globals over 3 partitions) with
//     ooo_bypass on converges with real bypasses happening.
//  4. Golden pin: the same recipe with ooo_bypass off (the default)
//     reproduces the pre-bypass digest bit-for-bit — the bypass layer is
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

// --- Park-gate unit tests ----------------------------------------------------

class BypassTest : public ::testing::Test {
 protected:
  Certifier cert{100, 1, /*ooo_bypass=*/true};
  std::uint64_t dc = 0;

  Certifier::Result deliver(const PartTx& t, std::uint32_t threshold = 0) {
    ++dc;
    return cert.process(t, dc + threshold, dc);
  }
};

TEST_F(BypassTest, DisjointLocalBypassesPendingGlobal) {
  // Threshold 0 so the local cannot *leap* the global — it appends behind
  // it; the bypass sweep is what commits it early.
  deliver(make_tx(1, true, {1}, {1}, 0), 0);
  const auto r = deliver(make_tx(2, false, {2}, {2}, 0), 0);
  ASSERT_EQ(r.outcome, Outcome::kCommit);
  EXPECT_EQ(r.position, 1u);
  EXPECT_FALSE(r.parked);
  EXPECT_EQ(cert.at(1).park_until, 0);
  ASSERT_EQ(cert.next_bypassable(0), 1u) << "globals are never bypassable; the local is";
  const PendingEntry e = cert.take_at(1);
  EXPECT_EQ(e.tx.id, 2u);
  cert.resolve(e, true);
  EXPECT_EQ(cert.stable(), 0) << "stable still waits for the pending global";
  EXPECT_EQ(cert.size(), 1u);
  cert.resolve(cert.pop_head(), true);
  EXPECT_EQ(cert.stable(), 2);
}

TEST_F(BypassTest, WriteConflictingBlindLocalParksUntilGlobalCompletes) {
  // Blind write (empty readset): certification commits it, but applying
  // its write before the pending global's would regress the store, so it
  // parks behind the global's version.
  deliver(make_tx(1, true, {5}, {5}, 0), 0);
  const auto r = deliver(make_tx(2, false, {}, {5}, 0), 0);
  ASSERT_EQ(r.outcome, Outcome::kCommit);
  EXPECT_TRUE(r.parked);
  EXPECT_EQ(cert.at(1).park_until, 1);
  EXPECT_EQ(cert.next_bypassable(0), Certifier::npos);
  // The global completes: the watermark reaches the bound and the local
  // unparks without any recomputation.
  cert.resolve(cert.pop_head(), true);
  EXPECT_EQ(cert.bypass_watermark(), 1);
  ASSERT_EQ(cert.next_bypassable(0), 0u);
  cert.resolve(cert.take_at(0), true);
  EXPECT_EQ(cert.stable(), 2);
}

TEST_F(BypassTest, ReadOfPendingWriteParks) {
  // The local read the global's pending write at a covering snapshot
  // (certification commits it — the determinism refinement), but it must
  // not be acknowledged before the write it observed is resolved.
  deliver(make_tx(1, true, {5}, {5}, 0), 0);
  const auto r = deliver(make_tx(2, false, {5}, {6}, /*snapshot=*/1), 0);
  ASSERT_EQ(r.outcome, Outcome::kCommit);
  EXPECT_TRUE(r.parked);
  EXPECT_EQ(cert.at(1).park_until, 1);
}

TEST_F(BypassTest, ParkBoundInheritedThroughConflictingLocals) {
  // g(v1) writes {5}; l1(v2) blind-writes {5} -> parks until 1; l2(v3)
  // blind-writes {5} -> conflicts with l1, inherits its bound. After g
  // completes both unpark, and the sweep takes them in version order —
  // exactly the order the store needs.
  deliver(make_tx(1, true, {5}, {5}, 0), 0);
  const auto r1 = deliver(make_tx(2, false, {}, {5}, 0), 0);
  const auto r2 = deliver(make_tx(3, false, {}, {5}, 0), 0);
  ASSERT_TRUE(r1.parked);
  ASSERT_TRUE(r2.parked);
  EXPECT_EQ(cert.at(1).park_until, 1);
  EXPECT_EQ(cert.at(2).park_until, 1) << "inherits l1's bound, not 0";
  EXPECT_EQ(cert.next_bypassable(0), Certifier::npos);
  cert.resolve(cert.pop_head(), true);  // g completes
  ASSERT_EQ(cert.next_bypassable(0), 0u);
  EXPECT_EQ(cert.at(0).tx.id, 2u) << "front-to-back sweep applies v2 before v3";
}

TEST_F(BypassTest, ParkedLocalKeepsLaterConflictingLocalBehindIt) {
  // l2 conflicts with parked l1 but not with the global itself; it still
  // must not bypass l1 (their writes must apply in version order), which
  // the inherited bound guarantees.
  deliver(make_tx(1, true, {5}, {5}, 0), 0);
  deliver(make_tx(2, false, {}, {5, 7}, 0), 0);   // parks until 1
  const auto r = deliver(make_tx(3, false, {}, {7}, 0), 0);  // conflicts only with l1
  ASSERT_EQ(r.outcome, Outcome::kCommit);
  EXPECT_TRUE(r.parked);
  EXPECT_EQ(cert.at(2).park_until, 1) << "bound inherited from l1, though disjoint from g";
}

TEST_F(BypassTest, BloomReadsetParksConservatively) {
  deliver(make_tx(1, true, {5}, {5}, 0), 0);
  PartTx t = make_tx(2, false, {}, {6}, /*snapshot=*/1);
  t.readset = util::KeySet::bloom({5});
  const auto r = deliver(t, 0);
  ASSERT_EQ(r.outcome, Outcome::kCommit);
  EXPECT_TRUE(r.parked) << "bloom readset intersecting the pending write set parks";
  EXPECT_EQ(cert.at(1).park_until, 1);
}

TEST_F(BypassTest, InstallRecomputesParkBoundsFromRestoredList) {
  deliver(make_tx(1, true, {5}, {5}, 0), 0);
  deliver(make_tx(2, false, {}, {5}, 0), 0);   // parked until 1
  deliver(make_tx(3, false, {2}, {2}, 0), 0);  // unparked
  util::Writer w;
  cert.encode(w);
  Certifier restored(100, 1, /*ooo_bypass=*/true);
  util::Reader r(w.data());
  restored.install(r);
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored.at(1).park_until, 1) << "bound recomputed on install, not serialized";
  EXPECT_EQ(restored.at(2).park_until, 0);
  EXPECT_EQ(restored.next_bypassable(0), 2u);
  restored.resolve(restored.pop_head(), true);
  EXPECT_EQ(restored.bypass_watermark(), 1);
  EXPECT_EQ(restored.next_bypassable(0), 0u) << "restored local unparks as the global completes";
}

// --- Randomized bypass == delivery-order-serial equivalence ------------------

// Drives a bypass-enabled certifier + MVStore against a delivery-order
// serial reference under adversarial completion timing. The final store
// must equal the reference's max-version-writer-per-key map, and every
// put() must be version-ascending per key (MVStore throws otherwise).
TEST(BypassProperty, RandomizedEquivalenceWithBlindWritesAndInstalls) {
  Certifier on(4000, 1, /*ooo_bypass=*/true);
  Certifier off(4000, 1, /*ooo_bypass=*/false);
  storage::MVStore store;
  // Delivery-order serial reference: final value of a key is the write of
  // its highest-version committed writer, fixed at certification time.
  std::map<Key, std::pair<Version, std::string>> ref;

  util::Rng rng(23);
  std::uint64_t d = 0;
  std::unordered_map<TxId, bool> arrived_on, arrived_off;
  std::uint64_t bypassed = 0, parked = 0;

  // Vote outcome of a global is a deterministic property of the
  // transaction; model it as a pure function of the id.
  auto commits = [](const PartTx& t) { return !t.is_global() || t.id % 7 != 0; };
  auto head_completable = [&](Certifier& c, std::unordered_map<TxId, bool>& arrived) {
    return !c.empty() && (!c.head().tx.is_global() || arrived[c.head().tx.id]);
  };
  auto drain_on = [&] {
    while (head_completable(on, arrived_on)) {
      const PendingEntry e = on.pop_head();
      const bool committed = commits(e.tx);
      if (committed) {
        for (const auto& op : e.tx.writes) store.put(op.key, op.value, e.version);
      }
      on.resolve(e, committed);
    }
    for (std::size_t pos = on.next_bypassable(0); pos != Certifier::npos;
         pos = on.next_bypassable(pos)) {
      const PendingEntry e = on.take_at(pos);
      ++bypassed;
      for (const auto& op : e.tx.writes) store.put(op.key, op.value, e.version);
      on.resolve(e, true);
    }
  };
  auto drain_off = [&] {
    while (head_completable(off, arrived_off)) {
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
    // Mostly-fresh snapshots (a long status-blind window aborts stale
    // readers wholesale, starving the park gate of committed locals).
    Version snap = std::min(on.stable(), off.stable());
    if (rng.chance(0.2)) snap = std::max<Version>(0, snap - static_cast<Version>(rng.below(4)));
    PartTx t = blind ? make_tx(1000 + static_cast<TxId>(i), false, {}, {k1}, snap)
                     : make_tx(1000 + static_cast<TxId>(i), global, {k1, k2}, {k1}, snap);
    if (!blind && rng.chance(0.15)) t.readset = util::KeySet::bloom({k1, k2});

    const auto ra = on.process(t, d + 12, d);
    const auto rb = off.process(t, d + 12, d);
    ASSERT_EQ(ra.outcome, rb.outcome) << "bypass gate changed a verdict at tx " << t.id;
    if (ra.outcome == Outcome::kCommit) {
      ASSERT_EQ(ra.version, rb.version);
      if (ra.parked) ++parked;
      if (commits(t)) {
        for (const auto& op : t.writes) {
          auto& slot = ref[op.key];
          if (ra.version > slot.first) slot = {ra.version, op.value};
        }
      }
    }

    // Adversarial, independent vote timing per arm: the bypass arm and the
    // reference arm rarely complete the same global at the same step, and
    // slow arrivals keep real convoys in the pending list.
    for (std::size_t j = 0; j < on.size(); ++j) {
      if (on.at(j).tx.is_global() && rng.chance(0.05)) arrived_on[on.at(j).tx.id] = true;
    }
    for (std::size_t j = 0; j < off.size(); ++j) {
      if (off.at(j).tx.is_global() && rng.chance(0.05)) arrived_off[off.at(j).tx.id] = true;
    }
    drain_on();
    drain_off();

    // Mid-stream checkpoint round trip: park bounds are recomputed from
    // the restored pending list and the watermark resets; neither may
    // change the schedule's outcome.
    if (i % 300 == 299) {
      util::Writer w;
      on.encode(w);
      util::Reader r(w.data());
      on.install(r);
    }
  }

  // Heal: every vote arrives; both arms drain fully.
  for (std::size_t j = 0; j < on.size(); ++j) arrived_on[on.at(j).tx.id] = true;
  for (std::size_t j = 0; j < off.size(); ++j) arrived_off[off.at(j).tx.id] = true;
  drain_on();
  drain_off();
  ASSERT_TRUE(on.empty());
  ASSERT_TRUE(off.empty());

  EXPECT_GT(bypassed, 100u) << "the sweep did real out-of-order commits";
  EXPECT_GT(parked, 20u) << "blind writes exercised the park gate";
  EXPECT_EQ(on.certified(), off.certified());
  EXPECT_EQ(on.stable(), off.stable());
  for (Version v = 1; v <= on.certified(); ++v) {
    if (on.slot(v) == nullptr || off.slot(v) == nullptr) continue;
    ASSERT_EQ(on.slot(v)->status, off.slot(v)->status) << "version " << v;
    ASSERT_EQ(on.slot(v)->txid, off.slot(v)->txid);
  }
  // The store the bypass schedule built equals the delivery-order serial
  // reference, key for key.
  ASSERT_EQ(store.key_count(), ref.size());
  for (const auto& [key, expect] : ref) {
    const auto got = store.get_latest(key);
    ASSERT_TRUE(got.has_value()) << "key " << key;
    EXPECT_EQ(got->version, expect.first) << "key " << key;
    EXPECT_EQ(got->value, expect.second) << "key " << key;
  }
}

// --- Injected bug: unsound bypass must not pass silently ---------------------

// Sabotaged park gate (every local unparked): a blind write bypasses the
// pending global writing the same key, and applying the global's write
// afterwards regresses the store — MVStore throws and, in audited builds,
// the version-order check reports a structured violation first. This is
// the defense-in-depth layer a buggy gate would run into in production.
TEST(ConvoyBypass, SkippedParkGateIsCaughtByStoreVersionOrder) {
#if SDUR_AUDIT_ON
  audit::Auditor::instance().reset();
#endif
  Certifier cert(100, 1, /*ooo_bypass=*/true);
  cert.test_skip_park_gate(true);
  storage::MVStore store;
  std::uint64_t d = 0;
  const PartTx g = make_tx(1, true, {5}, {5}, 0);
  ++d;
  ASSERT_EQ(cert.process(g, d, d).outcome, Outcome::kCommit);
  const PartTx l = make_tx(2, false, {}, {5}, 0);
  ++d;
  const auto r = cert.process(l, d, d);
  ASSERT_EQ(r.outcome, Outcome::kCommit);
  EXPECT_FALSE(r.parked) << "the sabotaged gate fails to park the conflicting local";
  ASSERT_EQ(cert.next_bypassable(0), 1u);
  const PendingEntry swept = cert.take_at(1);
  for (const auto& op : swept.tx.writes) store.put(op.key, op.value, swept.version);
  cert.resolve(swept, true);
  // The global completes and applies its (older) write after the local's.
  const PendingEntry head = cert.pop_head();
  EXPECT_THROW(store.put(5, "1", head.version), std::logic_error)
      << "out-of-order apply must not be silent";
#if SDUR_AUDIT_ON
  const auto& vs = audit::Auditor::instance().violations();
  EXPECT_TRUE(std::any_of(vs.begin(), vs.end(),
                          [](const audit::Violation& v) {
                            return std::string_view(v.invariant) == "version-order";
                          }))
      << audit::Auditor::instance().summary();
  audit::Auditor::instance().reset();
#endif
}

// --- End-to-end chaos + golden pin -------------------------------------------

namespace e2e {

/// Frozen pre-bypass digest of the shared chaos recipe with ooo_bypass off
/// (the same run as vote_batch_test); captured before the bypass
/// layer existed. Any drift means the default-off configuration is no
/// longer the legacy protocol.
/// Re-pinned once when reads moved from the stable prefix to the per-key
/// read frontier (DESIGN.md "Per-key read frontier"): fresher snapshots
/// commit 84 transactions here instead of 60.
constexpr std::uint64_t kLegacyDigest = 171193667431517724ULL;
constexpr std::uint64_t kLegacyCommitted = 84;

using chaos::ChaosOut;

/// The shared chaos recipe (tests/chaos_recipe.h), bypass on or off.
/// `reorder_threshold` defaults to the recipe's 24 (the golden pin needs
/// the exact legacy configuration); the technique-on run uses 0.
ChaosOut run_chaos(bool ooo_bypass, std::uint32_t reorder_threshold = 24) {
  TechniqueConfig t;
  t.reorder_threshold = reorder_threshold;
  t.ooo_bypass = ooo_bypass;
  return chaos::run_chaos(t);
}

TEST(ConvoyBypass, BypassOffMatchesLegacyGolden) {
  const ChaosOut r = run_chaos(false);
  EXPECT_EQ(r.digest, kLegacyDigest)
      << "ooo_bypass=false must stay bit-identical to the pre-bypass protocol";
  EXPECT_EQ(r.committed, kLegacyCommitted);
  // The bypass layer is fully inert when off.
  EXPECT_EQ(r.stats.bypassed_locals, 0u);
  EXPECT_EQ(r.stats.parked_locals, 0u);
}

TEST(ConvoyBypass, BypassOnConvergesUnderChaosAndCheckpointInstalls) {
  const ChaosOut r = run_chaos(true, /*reorder_threshold=*/0);
  EXPECT_GT(r.committed, 20u) << "the chaos run made real progress";
  EXPECT_TRUE(r.agree) << "replicas of each partition converged byte-for-byte";
  EXPECT_EQ(r.pending_total, 0u) << "every pending global resolved after heal";
  EXPECT_GT(r.stats.bypassed_locals, 0u)
      << "locals really committed past pending globals under chaos";
#if SDUR_AUDIT_ON
  // The run's bypass decisions were cross-checked in place: lane-index
  // gate equivalence, sweep serial-equivalence, park-gate determinism
  // across replicas and crash-replay.
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
#endif
}

}  // namespace e2e

}  // namespace
}  // namespace sdur

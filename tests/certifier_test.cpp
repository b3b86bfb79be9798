// Unit tests for the Certifier: the certification tests of Section III-B
// and the reordering conditions of Section IV-E (Algorithm 2, lines 46-64),
// exercised in isolation from messaging — plus the deterministic
// version-assignment refinement described in certifier.h / DESIGN.md.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sdur/certifier.h"
#include "storage/commit_window.h"

namespace sdur {
namespace {

PartTx make_tx(TxId id, bool global, std::vector<Key> rs, std::vector<Key> ws,
               Version snapshot) {
  PartTx t;
  t.kind = PartTx::Kind::kTxn;
  t.id = id;
  t.involved = global ? std::vector<PartitionId>{0, 1} : std::vector<PartitionId>{0};
  t.snapshot = snapshot;
  t.readset = util::KeySet::exact(std::move(rs));
  std::vector<Key> wk = ws;
  t.write_keys = util::KeySet::exact(std::move(wk));
  for (Key k : ws) t.writes.push_back(WriteOp{k, "v"});
  return t;
}

class CertifierTest : public ::testing::Test {
 protected:
  Certifier cert{100};
  std::uint64_t dc = 0;

  /// Delivers t with reorder threshold R, returning the result.
  Certifier::Result deliver(const PartTx& t, std::uint32_t threshold = 0) {
    ++dc;
    return cert.process(t, dc + threshold, dc);
  }

  /// Completes everything from the head (for these unit tests, globals are
  /// assumed vote-complete) as committed.
  void complete_all() {
    while (!cert.empty()) {
      const PendingEntry e = cert.pop_head();
      cert.resolve(e, true);
    }
  }
};

TEST_F(CertifierTest, LocalCommitsOnFreshDatabase) {
  const auto r = deliver(make_tx(1, false, {1, 2}, {1, 2}, 0));
  EXPECT_EQ(r.outcome, Outcome::kCommit);
  EXPECT_EQ(r.position, 0u);
  EXPECT_EQ(r.version, 1);
  EXPECT_FALSE(cert.at(r.position).reordered);
}

TEST_F(CertifierTest, LocalAbortsOnStaleRead) {
  // t1 commits a write to key 5 at version 1; t2 read key 5 at snapshot 0.
  deliver(make_tx(1, false, {5}, {5}, 0));
  complete_all();
  ASSERT_EQ(cert.stable(), 1);
  const auto r = deliver(make_tx(2, false, {5}, {5}, 0));
  EXPECT_EQ(r.outcome, Outcome::kAbort);
}

TEST_F(CertifierTest, LocalCommitsWithCurrentSnapshot) {
  deliver(make_tx(1, false, {5}, {5}, 0));
  complete_all();
  const auto r = deliver(make_tx(2, false, {5}, {5}, /*snapshot=*/1));
  EXPECT_EQ(r.outcome, Outcome::kCommit);
}

TEST_F(CertifierTest, DisjointLocalsBothCommit) {
  deliver(make_tx(1, false, {1}, {1}, 0));
  complete_all();
  const auto r = deliver(make_tx(2, false, {2}, {2}, 0));
  EXPECT_EQ(r.outcome, Outcome::kCommit);
}

TEST_F(CertifierTest, GlobalStricterTestAbortsOnWriteReadOverlap) {
  // Committed t1 *read* key 9. A concurrent global writing key 9 must
  // abort (Section III-B), even though no stale read occurred.
  deliver(make_tx(1, false, {9}, {}, 0));
  complete_all();
  const auto r = deliver(make_tx(2, true, {3}, {9}, 0));
  EXPECT_EQ(r.outcome, Outcome::kAbort);
}

TEST_F(CertifierTest, LocalNotSubjectToStricterTest) {
  // Same overlap as above, but the incoming transaction is local: the
  // asymmetric ctest lets it commit (delivery order serializes locals).
  deliver(make_tx(1, false, {9}, {}, 0));
  complete_all();
  const auto r = deliver(make_tx(2, false, {3}, {9}, 0));
  EXPECT_EQ(r.outcome, Outcome::kCommit);
}

TEST_F(CertifierTest, GlobalAbortsAgainstPendingBothDirections) {
  // Pending global g1 reads {1} writes {1}. Incoming global reading g1's
  // writes or writing g1's reads must abort.
  deliver(make_tx(1, true, {1}, {1}, 0), /*threshold=*/100);
  ASSERT_EQ(cert.size(), 1u);
  EXPECT_EQ(deliver(make_tx(2, true, {1}, {7}, 0), 100).outcome, Outcome::kAbort);
  EXPECT_EQ(deliver(make_tx(3, true, {7}, {1}, 0), 100).outcome, Outcome::kAbort);
  EXPECT_EQ(deliver(make_tx(4, true, {7}, {7}, 0), 100).outcome, Outcome::kCommit);
}

TEST_F(CertifierTest, StaleSnapshotOutsideWindowAborts) {
  Certifier small(2);
  std::uint64_t d = 0;
  for (TxId id = 1; id <= 5; ++id) {
    ++d;
    ASSERT_EQ(small.process(make_tx(id, false, {id * 10}, {id * 10}, small.stable()), d, d).outcome,
              Outcome::kCommit);
    small.resolve(small.pop_head(), true);
  }
  // Snapshot 1 needs slots (1,5]; versions 2,3 were evicted (capacity 2).
  ++d;
  const auto r = small.process(make_tx(9, false, {999}, {999}, 1), d, d);
  EXPECT_EQ(r.outcome, Outcome::kAbort);
  EXPECT_TRUE(r.stale_snapshot);
  EXPECT_FALSE(small.covers(1));
  EXPECT_TRUE(small.covers(4));
}

// --- Determinism refinement (see certifier.h header comment) ---------------

TEST_F(CertifierTest, PendingTransactionInsideSnapshotIsNotAConflict) {
  // The race from the paper's pseudocode: transaction t read g's writes at
  // a replica where g had completed (t.snapshot covers g's version), but
  // at *this* replica g is still pending when t is delivered. t must
  // commit here exactly as it does at the fast replica.
  deliver(make_tx(1, true, {5}, {5}, 0), /*threshold=*/100);  // g: version 1, pending
  ASSERT_EQ(cert.size(), 1u);
  const auto r = deliver(make_tx(2, false, {5}, {5}, /*snapshot=*/1), 100);
  EXPECT_EQ(r.outcome, Outcome::kCommit)
      << "g's version (1) is within t's snapshot; pending status is a timing artifact";
  EXPECT_EQ(r.position, 1u) << "t cannot leap g (their sets intersect): it appends";
}

TEST_F(CertifierTest, PendingConflictOutsideSnapshotAborts) {
  deliver(make_tx(1, true, {5}, {5}, 0), 100);  // g: version 1, pending
  const auto r = deliver(make_tx(2, false, {5}, {5}, /*snapshot=*/0), 100);
  EXPECT_EQ(r.outcome, Outcome::kAbort) << "t did not see g's writes: stale read";
}

TEST_F(CertifierTest, AbortedSlotStillConflictsForOldSnapshots) {
  // Certification must be independent of resolution status: a replica that
  // learned g aborted cannot decide differently from one where g is still
  // pending, so the aborted slot conservatively stays a conflict source
  // for snapshots that predate it.
  deliver(make_tx(1, true, {5}, {5}, 0), 0);  // g: version 1
  cert.resolve(cert.pop_head(), /*committed=*/false);
  EXPECT_EQ(deliver(make_tx(2, false, {5}, {5}, /*snapshot=*/0), 0).outcome, Outcome::kAbort)
      << "snapshot 0 predates the aborted slot: conservative abort";
  const auto r = deliver(make_tx(3, false, {5}, {5}, /*snapshot=*/1), 0);
  EXPECT_EQ(r.outcome, Outcome::kCommit) << "a fresh snapshot passes";
  // tx 2 failed certification and consumed no slot; the vote-aborted tx 1
  // keeps version 1, so tx 3 gets version 2.
  EXPECT_EQ(r.version, 2);
}

TEST_F(CertifierTest, StablePrefixWaitsForUnresolvedGlobal) {
  deliver(make_tx(1, true, {1}, {1}, 0), 100);   // g: version 1, pending
  deliver(make_tx(2, false, {2}, {2}, 0), 100);  // l: version 2, leaps g
  ASSERT_EQ(cert.head().tx.id, 2u);
  cert.resolve(cert.pop_head(), true);  // l resolves first
  EXPECT_EQ(cert.stable(), 0) << "stable cannot pass the unresolved global's version";
  cert.resolve(cert.pop_head(), true);  // g resolves
  EXPECT_EQ(cert.stable(), 2);
}

// --- Reordering (Section IV-E) ------------------------------------------------

TEST_F(CertifierTest, LocalLeapsPendingGlobal) {
  deliver(make_tx(1, true, {1}, {1}, 0), /*threshold=*/10);
  const auto r = deliver(make_tx(2, false, {2}, {2}, 0), 10);
  EXPECT_EQ(r.outcome, Outcome::kCommit);
  EXPECT_EQ(r.position, 0u) << "local should leap the pending global";
  EXPECT_TRUE(cert.at(r.position).reordered);
  EXPECT_EQ(r.version, 2) << "versions stay delivery-ordered";
  EXPECT_EQ(cert.head().tx.id, 2u);
}

TEST_F(CertifierTest, BaselineThresholdZeroNeverLeaps) {
  deliver(make_tx(1, true, {1}, {1}, 0), /*threshold=*/0);
  const auto r = deliver(make_tx(2, false, {2}, {2}, 0), 0);
  EXPECT_EQ(r.outcome, Outcome::kCommit);
  EXPECT_EQ(r.position, 1u) << "with R=0 the global already reached its threshold";
  EXPECT_FALSE(cert.at(r.position).reordered);
}

TEST_F(CertifierTest, NoLeapPastGlobalAtThreshold) {
  // Global delivered with threshold 2: rt = dc(=1) + 2 = 3. Until dc
  // passes 3 locals may leap; afterwards the global may have completed at
  // other replicas, so leaping would be non-deterministic.
  deliver(make_tx(1, true, {1}, {1}, 0), 2);
  const auto r2 = deliver(make_tx(2, false, {2}, {2}, 0), 2);  // dc=2 <= rt=3
  EXPECT_TRUE(cert.at(r2.position).reordered);
  const auto r3 = deliver(make_tx(3, false, {3}, {3}, 0), 2);  // dc=3 == rt: still ok
  EXPECT_TRUE(cert.at(r3.position).reordered);
  const auto r4 = deliver(make_tx(4, false, {4}, {4}, 0), 2);  // dc=4 > rt=3
  EXPECT_EQ(r4.outcome, Outcome::kCommit);
  EXPECT_FALSE(cert.at(r4.position).reordered) << "global passed its reorder threshold";
  EXPECT_EQ(r4.position, cert.size() - 1);
}

TEST_F(CertifierTest, LeapMustNotInvalidateGlobalVote) {
  // Pending global read {5}; a local writing 5 must not be reordered
  // before it (that would change the global's already-broadcast vote), but
  // appending after it is fine.
  deliver(make_tx(1, true, {5}, {}, 0), 10);
  const auto r = deliver(make_tx(2, false, {5, 6}, {5, 6}, 0), 10);
  EXPECT_EQ(r.outcome, Outcome::kCommit);
  EXPECT_EQ(r.position, 1u) << "append allowed, leap forbidden";
  EXPECT_FALSE(cert.at(r.position).reordered);
}

TEST_F(CertifierTest, StaleReadAgainstPendingGlobalAborts) {
  deliver(make_tx(1, true, {5}, {5}, 0), 10);
  const auto r = deliver(make_tx(2, false, {5}, {5}, 0), 10);
  EXPECT_EQ(r.outcome, Outcome::kAbort);
}

TEST_F(CertifierTest, LocalNeverLeapsPendingLocal) {
  // Pending: [global(not leapable), local]. A new local must append after
  // the pending local (condition b), never before it.
  deliver(make_tx(1, true, {1}, {1}, 0), 0);   // rt = dc: not leapable
  deliver(make_tx(2, false, {2}, {2}, 0), 0);  // appended behind the global
  ASSERT_EQ(cert.size(), 2u);
  const auto r = deliver(make_tx(3, false, {3}, {3}, 0), 0);
  EXPECT_EQ(r.outcome, Outcome::kCommit);
  EXPECT_EQ(r.position, 2u);
}

TEST_F(CertifierTest, LeftmostValidPositionChosen) {
  // Pending: [g1 (not leapable), g2 (leapable)]; the local leaps g2 only.
  deliver(make_tx(1, true, {1}, {1}, 0), 0);   // rt=1=dc: not leapable
  deliver(make_tx(2, true, {2}, {2}, 0), 50);  // leapable
  const auto r = deliver(make_tx(3, false, {3}, {3}, 0), 50);
  EXPECT_EQ(r.outcome, Outcome::kCommit);
  EXPECT_EQ(r.position, 1u);
  EXPECT_TRUE(cert.at(r.position).reordered);
  EXPECT_EQ(cert.at(0).tx.id, 1u);
  EXPECT_EQ(cert.at(1).tx.id, 3u);
  EXPECT_EQ(cert.at(2).tx.id, 2u);
}

TEST_F(CertifierTest, LeapsMultipleGlobals) {
  deliver(make_tx(1, true, {1}, {1}, 0), 50);
  deliver(make_tx(2, true, {2}, {2}, 0), 50);
  deliver(make_tx(3, true, {3}, {3}, 0), 50);
  const auto r = deliver(make_tx(4, false, {4}, {4}, 0), 50);
  EXPECT_EQ(r.position, 0u);
  EXPECT_EQ(cert.head().tx.id, 4u);
}

TEST_F(CertifierTest, ReorderedLocalCertifiedAgainstCommitted) {
  // Reordering does not bypass certification versus committed state.
  deliver(make_tx(1, false, {7}, {7}, 0));
  complete_all();
  deliver(make_tx(2, true, {1}, {1}, cert.stable()), 10);
  const auto r = deliver(make_tx(3, false, {7}, {7}, 0), 10);  // stale vs committed t1
  EXPECT_EQ(r.outcome, Outcome::kAbort);
}

TEST_F(CertifierTest, BloomReadsetsDetectConflicts) {
  PartTx t1 = make_tx(1, false, {}, {5}, 0);
  t1.readset = util::KeySet::bloom({5});
  t1.snapshot = 0;
  ASSERT_EQ(deliver(t1).outcome, Outcome::kCommit);
  complete_all();
  PartTx t2 = make_tx(2, false, {}, {5}, 0);
  t2.readset = util::KeySet::bloom({5});
  EXPECT_EQ(deliver(t2).outcome, Outcome::kAbort) << "bloom rs vs exact committed ws";
}

TEST_F(CertifierTest, BloomWriteKeysAreRejected) {
  // Write keys are exact by construction (Server::project): the window
  // and the unresolved-writer index hold them key by key.
  PartTx t = make_tx(1, false, {1}, {}, 0);
  t.write_keys = util::KeySet::bloom({1});
  EXPECT_THROW(deliver(t), std::invalid_argument);
  EXPECT_EQ(cert.certified(), 0) << "rejected before any check";
  EXPECT_TRUE(cert.empty());

  storage::CommitWindow window;
  storage::CommitRecord rec;
  rec.writeset = util::KeySet::bloom({1});
  EXPECT_THROW(window.push(1, std::move(rec)), std::invalid_argument);
  EXPECT_TRUE(window.empty());
}

TEST_F(CertifierTest, ResolveAdvancesStableAndRecordsSlot) {
  EXPECT_EQ(cert.stable(), 0);
  EXPECT_EQ(cert.certified(), 0);
  deliver(make_tx(1, false, {1}, {1}, 0));
  EXPECT_EQ(cert.certified(), 1);
  EXPECT_EQ(cert.stable(), 0) << "unresolved";
  const PendingEntry e = cert.pop_head();
  EXPECT_EQ(e.version, 1);
  cert.resolve(e, true);
  EXPECT_EQ(cert.stable(), 1);
  ASSERT_NE(cert.slot(1), nullptr);
  EXPECT_EQ(cert.slot(1)->status, Certifier::SlotStatus::kCommitted);
  EXPECT_EQ(cert.slot(1)->txid, 1u);
}

TEST_F(CertifierTest, ResetClearsEverything) {
  deliver(make_tx(1, true, {1}, {1}, 0), 10);
  deliver(make_tx(2, false, {2}, {2}, 0), 10);
  complete_all();
  cert.reset();
  EXPECT_EQ(cert.stable(), 0);
  EXPECT_EQ(cert.certified(), 0);
  EXPECT_TRUE(cert.empty());
  EXPECT_EQ(cert.window_size(), 0u);
}

// Determinism: identical delivery sequences produce identical decisions,
// versions and pending-list orders on two certifiers even when completion
// (vote arrival) timing differs wildly between them.
TEST_F(CertifierTest, DeterministicUnderDifferentCompletionTiming) {
  // Replica a completes vote-ready heads immediately; replica b's "votes"
  // arrive late, so its pending list is often longer when the next
  // transaction is certified. Outcomes and assigned versions must match
  // anyway — insertion positions and completion order may legitimately
  // differ (reordered transactions commute).
  Certifier a(1000), b(1000);
  util::Rng rng(17);
  std::uint64_t d = 0;
  auto completable = [&](Certifier& c) {
    return !c.empty() && (!c.head().tx.is_global() || c.head().rt <= d);
  };
  // Vote outcome of a global is a deterministic property of the
  // transaction (all partitions certify deterministically); model it as a
  // pure function of the id.
  auto commits = [](const PendingEntry& e) { return !e.tx.is_global() || e.tx.id % 7 != 0; };
  for (int i = 0; i < 800; ++i) {
    ++d;
    const bool global = rng.chance(0.3);
    const Key k1 = rng.below(20);
    const Key k2 = rng.below(20);
    const Version snap = static_cast<Version>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(a.stable()), rng.below(16)));
    const PartTx t = make_tx(1000 + static_cast<TxId>(i), global, {k1, k2}, {k1}, snap);
    const auto ra = a.process(t, d + 4, d);
    const auto rb = b.process(t, d + 4, d);
    ASSERT_EQ(ra.outcome, rb.outcome) << "tx " << i;
    if (ra.outcome == Outcome::kCommit) {
      ASSERT_EQ(ra.version, rb.version);
    }
    while (completable(a)) {
      const PendingEntry e = a.pop_head();
      a.resolve(e, commits(e));
    }
    if (rng.chance(0.3)) {
      while (completable(b)) {
        const PendingEntry e = b.pop_head();
        b.resolve(e, commits(e));
      }
    }
  }
  while (completable(b)) {
    const PendingEntry e = b.pop_head();
    b.resolve(e, commits(e));
  }
  EXPECT_EQ(a.certified(), b.certified());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.stable(), b.stable());
  for (Version v = 1; v <= a.certified(); ++v) {
    if (a.slot(v) == nullptr || b.slot(v) == nullptr) continue;
    ASSERT_EQ(a.slot(v)->status, b.slot(v)->status) << "version " << v;
    ASSERT_EQ(a.slot(v)->txid, b.slot(v)->txid);
  }
}

}  // namespace
}  // namespace sdur

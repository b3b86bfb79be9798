// Unit tests for the storage layer: multiversion store and the
// certification commit window.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "storage/commit_window.h"
#include "storage/flat_table.h"
#include "storage/mvstore.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace sdur::storage {
namespace {

TEST(MVStore, SnapshotReadsSeeRightVersion) {
  MVStore s;
  s.load(1, "v0");
  s.put(1, "v5", 5);
  s.put(1, "v9", 9);

  EXPECT_EQ(s.get(1, 0)->value, "v0");
  EXPECT_EQ(s.get(1, 4)->value, "v0");
  EXPECT_EQ(s.get(1, 5)->value, "v5");
  EXPECT_EQ(s.get(1, 8)->value, "v5");
  EXPECT_EQ(s.get(1, 9)->value, "v9");
  EXPECT_EQ(s.get(1, 100)->value, "v9");
  EXPECT_EQ(s.get_latest(1)->version, 9);
}

TEST(MVStore, MissingKey) {
  MVStore s;
  EXPECT_FALSE(s.get(42, 100).has_value());
  EXPECT_FALSE(s.get_latest(42).has_value());
}

TEST(MVStore, SameVersionOverwrites) {
  MVStore s;
  s.put(1, "a", 3);
  s.put(1, "b", 3);
  EXPECT_EQ(s.get(1, 3)->value, "b");
  EXPECT_EQ(s.version_count(), 1u);
}

TEST(MVStore, VersionRegressionThrows) {
  MVStore s;
  s.put(1, "a", 5);
  EXPECT_THROW(s.put(1, "b", 4), std::logic_error);
}

TEST(MVStore, GcKeepsNewestReadableAtHorizon) {
  MVStore s;
  s.put(1, "v1", 1);
  s.put(1, "v5", 5);
  s.put(1, "v9", 9);
  s.gc(6);
  // v5 is the newest version <= 6 and must stay readable; v1 may go.
  EXPECT_EQ(s.get(1, 6)->value, "v5");
  EXPECT_EQ(s.get(1, 100)->value, "v9");
  EXPECT_EQ(s.version_count(), 2u);
  EXPECT_FALSE(s.get(1, 1).has_value()) << "pre-horizon version was collected";
}

// The stable prefix may advance several versions in one resolution, and
// which resolution lands where depends on vote timing; every replica must
// still prune at the same horizon.
TEST(MVStore, GcHorizonFiresOnEveryBoundaryCrossing) {
  constexpr Version B = MVStore::kGcPeriod;
  constexpr Version keep = 50'000;
  // A jump over the boundary prunes, like a landing on it.
  EXPECT_EQ(MVStore::gc_horizon(B - 3, B + 4, keep), B - keep);
  // An abort (or any resolution) landing exactly on it prunes too.
  EXPECT_EQ(MVStore::gc_horizon(B - 1, B, keep), B - keep);
  EXPECT_EQ(MVStore::gc_horizon(2 * B - 1, 2 * B, keep), 2 * B - keep);
  // No crossing: nothing to prune, including a move that starts on it.
  EXPECT_FALSE(MVStore::gc_horizon(B + 1, B + 9, keep).has_value());
  EXPECT_FALSE(MVStore::gc_horizon(B, B + 1, keep).has_value());
  EXPECT_FALSE(MVStore::gc_horizon(0, B - 1, keep).has_value());
}

TEST(MVStore, TruncateAboveRollsBack) {
  MVStore s;
  s.load(1, "init");
  s.put(1, "v3", 3);
  s.put(2, "only-new", 2);
  s.truncate_above(0);
  EXPECT_EQ(s.get(1, 100)->value, "init");
  EXPECT_FALSE(s.get(2, 100).has_value());
}

TEST(MVStore, VersionsOfExposesOrder) {
  MVStore s;
  s.put(7, "a", 1);
  s.put(7, "b", 2);
  const auto* versions = s.versions_of(7);
  ASSERT_NE(versions, nullptr);
  ASSERT_EQ(versions->size(), 2u);
  EXPECT_EQ((*versions)[0].version, 1);
  EXPECT_EQ((*versions)[1].version, 2);
  EXPECT_EQ(s.versions_of(8), nullptr);
}

CommitRecord rec(std::uint64_t id, std::vector<std::uint64_t> rs, std::vector<std::uint64_t> ws) {
  return CommitRecord{id, false, CommitStatus::kPending, util::KeySet::exact(std::move(rs)),
                      util::KeySet::exact(std::move(ws))};
}

/// Txids of the records after `st`, in scan order.
std::vector<std::uint64_t> txids_after(const CommitWindow& w, Version st) {
  std::vector<std::uint64_t> seen;
  w.scan_after(st, [&](Version, const CommitRecord& r) {
    seen.push_back(r.txid);
    return true;
  });
  return seen;
}

/// A window holding versions 1..5 whose records before `base` were evicted.
CommitWindow five_evicted_below(Version base) {
  CommitWindow w;
  for (Version v = 1; v <= 5; ++v) w.push(v, rec(static_cast<std::uint64_t>(v), {}, {}));
  w.evict_below(base);
  return w;
}

TEST(CommitWindow, ScanAfterVisitsOnlyNewerCommits) {
  CommitWindow w;
  w.push(1, rec(101, {1}, {1}));
  w.push(2, rec(102, {2}, {2}));
  w.push(3, rec(103, {3}, {3}));
  EXPECT_EQ(txids_after(w, 1), (std::vector<std::uint64_t>{102, 103}));
}

TEST(CommitWindow, ScanStopsEarly) {
  CommitWindow w;
  w.push(1, rec(101, {}, {}));
  w.push(2, rec(102, {}, {}));
  int visits = 0;
  const bool complete = w.scan_after(0, [&](Version, const CommitRecord&) {
    ++visits;
    return false;
  });
  EXPECT_FALSE(complete);
  EXPECT_EQ(visits, 1);
}

TEST(CommitWindow, EvictBelowDropsOldest) {
  CommitWindow w = five_evicted_below(3);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.base(), 3);
  EXPECT_EQ(w.oldest(), 3);
  EXPECT_EQ(w.newest(), 5);
  w.evict_below(2);  // a lower bound is a no-op
  EXPECT_EQ(w.base(), 3);
  EXPECT_EQ(w.size(), 3u);
}

TEST(CommitWindow, CoversTracksEviction) {
  CommitWindow w = five_evicted_below(1);
  EXPECT_TRUE(w.covers(0));
  w.evict_below(3);
  EXPECT_TRUE(w.covers(2)) << "commits (2, 5] are all present";
  EXPECT_TRUE(w.covers(4));
  EXPECT_FALSE(w.covers(1)) << "commit at version 2 was evicted";
}

TEST(CommitWindow, NonAscendingPushThrows) {
  CommitWindow w;
  w.push(1, rec(1, {}, {}));
  EXPECT_THROW(w.push(1, rec(2, {}, {})), std::logic_error);
  EXPECT_THROW(w.push(0, rec(2, {}, {})), std::logic_error);
  // A gap throws too: one record per version is what makes a lookup by
  // version one subtraction.
  EXPECT_THROW(w.push(3, rec(3, {}, {})), std::logic_error);
  w.push(2, rec(2, {}, {}));
  EXPECT_EQ(txids_after(w, 0), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_NE(w.find(2), nullptr);
  EXPECT_EQ(w.find(3), nullptr);
  // Below the base is evicted history: it throws even on an empty window.
  CommitWindow evicted = five_evicted_below(6);
  ASSERT_TRUE(evicted.empty());
  EXPECT_THROW(evicted.push(5, rec(5, {}, {})), std::logic_error);
  evicted.push(6, rec(6, {}, {}));
  EXPECT_EQ(evicted.size(), 1u);
}

// --- Hardened covers()/scan_after() boundaries -------------------------------

TEST(CommitWindow, EmptyWindowCoversEverySnapshot) {
  CommitWindow w;
  EXPECT_TRUE(w.covers(0));
  EXPECT_TRUE(w.covers(-1));
  EXPECT_TRUE(w.covers(std::numeric_limits<Version>::max()));
  EXPECT_TRUE(txids_after(w, 0).empty());
}

TEST(CommitWindow, ExactBaseBoundary) {
  CommitWindow w = five_evicted_below(3);
  // Window holds [3, 5]. st == base - 1 == 2 is the oldest coverable
  // snapshot: the scan must visit the whole window, starting at the base.
  ASSERT_EQ(w.oldest(), 3);
  EXPECT_TRUE(w.covers(2));
  EXPECT_EQ(txids_after(w, 2), (std::vector<std::uint64_t>{3, 4, 5}));
}

TEST(CommitWindow, PredatesWindowIsAnAuditViolation) {
  audit::Auditor::instance().reset();
  CommitWindow w = five_evicted_below(3);
  ASSERT_FALSE(w.covers(1));
  ASSERT_TRUE(audit::Auditor::instance().clean());
  // The scan still starts at the base (callers must check covers() first),
  // but the silent clamp is an audited precondition violation.
  EXPECT_EQ(txids_after(w, 1).size(), 3u);
#if SDUR_AUDIT_ON
  EXPECT_FALSE(audit::Auditor::instance().clean());
  ASSERT_EQ(audit::Auditor::instance().violations().size(), 1u);
  EXPECT_EQ(audit::Auditor::instance().violations().front().invariant, "scan-covers-precondition");
#endif
  audit::Auditor::instance().reset();
}

TEST(CommitWindow, MaxSnapshotDoesNotOverflow) {
  CommitWindow w = five_evicted_below(3);
  const Version huge = std::numeric_limits<Version>::max();
  // st >= newest: nothing to scan, and st + 1 must never be computed.
  EXPECT_TRUE(w.covers(huge));
  EXPECT_TRUE(txids_after(w, huge).empty());
  EXPECT_FALSE(w.conflicts_scan(util::KeySet::exact({1}), util::KeySet::exact({1}), true, huge));
  EXPECT_FALSE(w.conflicts_indexed(util::KeySet::exact({1}), util::KeySet::exact({1}), true, huge));
}

TEST(CommitWindow, RepeatedEvictionKeepsRecordsIntact) {
  // Slide the window far past its size so storage is freed and refilled
  // repeatedly, then check the survivors are exactly the newest four.
  CommitWindow w;
  for (Version v = 1; v <= 23; ++v) {
    w.push(v, rec(static_cast<std::uint64_t>(100 + v),
                  {static_cast<std::uint64_t>(v)}, {static_cast<std::uint64_t>(v)}));
    w.evict_below(v - 3);
  }
  EXPECT_EQ(w.size(), 4u);
  EXPECT_EQ(w.oldest(), 20);
  EXPECT_EQ(w.newest(), 23);
  EXPECT_EQ(txids_after(w, w.oldest() - 1), (std::vector<std::uint64_t>{120, 121, 122, 123}));
  // The index tracked eviction: only the surviving writers conflict.
  EXPECT_FALSE(w.conflicts(util::KeySet::exact({19}), util::KeySet::exact({}), false, 19));
  EXPECT_TRUE(w.conflicts(util::KeySet::exact({21}), util::KeySet::exact({}), false, 19));
  // clear() rebuilds from nothing at a new base.
  w.clear(30);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.index().key_count(), 0u);
  EXPECT_FALSE(w.covers(28));
  w.push(30, rec(130, {}, {21}));
  EXPECT_TRUE(w.conflicts(util::KeySet::exact({21}), util::KeySet::exact({}), false, 29));
}

// --- FlatTable / chain / arena hot-path structures --------------------------

TEST(FlatTable, InsertFindEraseAcrossGrowth) {
  FlatTable<int> t;
  for (std::uint64_t k = 0; k < 500; ++k) t[k * 977] = static_cast<int>(k);
  EXPECT_EQ(t.size(), 500u);
  for (std::uint64_t k = 0; k < 500; ++k) {
    const int* v = t.find(k * 977);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, static_cast<int>(k));
  }
  EXPECT_EQ(t.find(12345678901ull), nullptr);
  // Erase every other key; backward-shift deletion must keep the rest
  // reachable through their probe chains.
  for (std::uint64_t k = 0; k < 500; k += 2) EXPECT_TRUE(t.erase(k * 977));
  EXPECT_FALSE(t.erase(977 * 2));  // already gone
  EXPECT_EQ(t.size(), 250u);
  for (std::uint64_t k = 1; k < 500; k += 2) {
    ASSERT_NE(t.find(k * 977), nullptr) << "key " << k * 977 << " lost after neighbor erase";
  }
}

/// A reference model of a store: key -> version -> value.
using Model = std::map<Key, std::map<Version, std::string>>;

/// Every key of `model` reads its model value at every snapshot in
/// [-1, max_snapshot], and the store holds no other key.
void expect_matches(const MVStore& s, const Model& model, Version max_snapshot) {
  EXPECT_EQ(s.key_count(), model.size());
  for (const auto& [k, versions] : model) {
    for (Version st = -1; st <= max_snapshot; ++st) {
      const auto it = versions.upper_bound(st);
      const auto got = s.get(k, st);
      if (it == versions.begin()) {
        EXPECT_FALSE(got.has_value()) << "key " << k << " snapshot " << st;
      } else {
        ASSERT_TRUE(got.has_value()) << "key " << k << " snapshot " << st;
        EXPECT_EQ(got->version, std::prev(it)->first) << "key " << k << " snapshot " << st;
        EXPECT_EQ(got->value, std::prev(it)->second) << "key " << k << " snapshot " << st;
      }
    }
  }
}

/// Sum of the value bytes every chain references.
std::size_t live_value_bytes(const MVStore& s) {
  std::size_t live = 0;
  for (Key k : s.keys()) {
    for (const VersionRef& v : *s.versions_of(k)) live += v.value.size();
  }
  return live;
}

TEST(MVStore, RollbackEmptyingAMiddleChainKeepsEveryKeyReadable) {
  MVStore s;
  Model model;
  const auto put = [&](Key k, const std::string& v, Version version) {
    s.put(k, v, version);
    model[k][version] = v;
  };
  const auto truncate_model_above = [&](Version horizon) {
    for (auto it = model.begin(); it != model.end();) {
      it->second.erase(it->second.upper_bound(horizon), it->second.end());
      it = it->second.empty() ? model.erase(it) : std::next(it);
    }
  };
  for (Key k = 0; k < 8; ++k) put(k, "init" + std::to_string(k), 0);
  put(100, "doomed", 3);  // a new key, in the middle of the chain vector
  for (Key k = 200; k < 208; ++k) put(k, "late" + std::to_string(k), 2);
  for (Key k = 0; k < 8; k += 2) {
    for (Version v = 4; v <= 6; ++v) put(k, "v" + std::to_string(v), v);  // spilled chains
  }
  // Rolling back to version 2 empties key 100's chain: the last chain is
  // swapped into its hole.
  s.truncate_above(2);
  truncate_model_above(2);
  expect_matches(s, model, 7);
  // The chain moved into the hole is still reachable for writes.
  put(207, "after", 8);
  put(100, "reborn", 9);
  for (Key k = 0; k < 8; k += 2) {
    for (Version v = 10; v <= 12; ++v) put(k, "v" + std::to_string(v), v);
  }
  expect_matches(s, model, 13);
  // GC drops several versions from the front of a spilled chain at once.
  s.gc(11);
  for (auto& [k, versions] : model) {
    const auto keep = versions.upper_bound(11);
    if (keep != versions.begin()) versions.erase(versions.begin(), std::prev(keep));
  }
  expect_matches(s, model, 13);
}

TEST(MVStore, TruncateAboveDropsSpeculativeNewKeysAndKeepsTheRest) {
  MVStore s;
  Model model;
  for (Key k = 0; k < 4; ++k) {
    s.load(k, "init" + std::to_string(k));
    model[k][0] = "init" + std::to_string(k);
  }
  s.put(100, "new", 1);  // keys that exist only above the horizon
  s.put(101, "new", 1);
  for (Key k = 4; k < 8; ++k) {
    s.load(k, "init" + std::to_string(k));
    model[k][0] = "init" + std::to_string(k);
  }
  s.put(5, "new", 2);
  s.put(102, "new", 2);
  s.put(1, "committed", 3);
  s.truncate_above(0);
  EXPECT_EQ(s.version_count(), 8u);
  expect_matches(s, model, 4);
  EXPECT_EQ(s.arena_bytes(), live_value_bytes(s)) << "truncation compacts the arena";
}

TEST(MVStore, InsertPlacesBelowNewerVersions) {
  MVStore s;
  Model model;
  const auto put = [&](Key k, const std::string& v, Version version) {
    s.put(k, v, version);
    model[k][version] = v;
  };
  const auto insert = [&](Key k, const std::string& v, Version version) {
    s.insert(k, v, version);
    model[k][version] = v;
  };
  put(1, "a0", 0);
  put(1, "a5", 5);
  put(1, "a9", 9);
  insert(1, "a3", 3);  // between older and newer versions
  insert(1, "a7", 7);
  put(2, "b4", 4);
  insert(2, "b1", 1);  // at the front of a one-version chain
  put(3, "c2", 2);
  put(3, "c6", 6);
  insert(3, "c1", 1);   // at the front of a spilled chain
  insert(4, "d3", 3);   // an absent key
  insert(1, "a5+", 5);  // same-version overwrite below a newer version
  insert(3, "c1+", 1);  // same-version overwrite at the front
  insert(2, "b4+", 4);  // same-version overwrite of the newest: put()
  insert(1, "a10", 10);  // nothing newer: put()
  expect_matches(s, model, 12);
  std::size_t versions = 0;
  for (const auto& [k, vs] : model) versions += vs.size();
  EXPECT_EQ(s.version_count(), versions);

  // put() stays strict: a regression below the newest version still throws.
  audit::Auditor::instance().reset();
  EXPECT_THROW(s.put(1, "late", 8), std::logic_error);
  EXPECT_THROW(s.put(2, "late", 1), std::logic_error);
  audit::Auditor::instance().reset();
  expect_matches(s, model, 12);
}

TEST(MVStore, ArenaStaysWithinTwiceLiveBytesAcrossGcCycles) {
  constexpr Key kKeys = 256;
  MVStore s;
  for (Key k = 0; k < kKeys; ++k) s.load(k, std::string(64, 'a'));
  for (Version cycle = 1; cycle <= 20; ++cycle) {
    const std::string value(64, static_cast<char>('a' + cycle));
    for (Key k = 0; k < kKeys; ++k) {
      s.put(k, std::string(64, '?'), cycle);
      s.put(k, value, cycle);  // same-version overwrite: garbage
    }
    s.gc(cycle);
    const std::size_t live = live_value_bytes(s);
    EXPECT_EQ(live, kKeys * 64) << "one live version per key after gc";
    EXPECT_LE(s.arena_bytes(), 2 * live) << "cycle " << cycle;
    EXPECT_EQ(s.get_latest(kKeys - 1)->value, value);
  }
}

TEST(MVStore, EncodeInstallRoundTripsFlatTable) {
  MVStore s;
  for (std::uint64_t k = 0; k < 40; ++k) {
    s.put(k, "a" + std::to_string(k), 1);
    if (k % 3 == 0) s.put(k, "b" + std::to_string(k), 2 + static_cast<Version>(k));
  }
  util::Writer w1;
  s.encode(w1);

  MVStore t;
  t.put(999, "stale", 7);  // install() must fully replace this
  util::Reader r(w1.data());
  t.install(r);
  EXPECT_EQ(t.key_count(), s.key_count());
  EXPECT_EQ(t.version_count(), s.version_count());
  EXPECT_FALSE(t.get_latest(999).has_value());

  // Canonical bytes: re-encoding the installed copy is bit-identical.
  util::Writer w2;
  t.encode(w2);
  EXPECT_EQ(w1.data(), w2.data());
}

TEST(MVStore, EncodeInstallRoundTripsSpilledAndSpeculativeChains) {
  MVStore s;
  for (Key k = 0; k < 16; ++k) s.load(k, "init" + std::to_string(k));
  for (Version v = 1; v <= 5; ++v) {
    for (Key k = 0; k < 16; k += 3) s.put(k, "v" + std::to_string(v), v);  // spilled
  }
  util::Writer w1;
  s.encode(w1);

  MVStore t;
  util::Reader r(w1.data());
  t.install(r);
  EXPECT_EQ(t.version_count(), s.version_count());
  EXPECT_EQ(t.versions_of(0)->size(), 6u);
  util::Writer w2;
  t.encode(w2);
  EXPECT_EQ(w1.data(), w2.data());
}

// --- A store over a shared initial image ----------------------------------

/// An image holding keys [0, n) at version 0.
std::shared_ptr<const MVStore> image_of(Key n) {
  auto image = std::make_shared<MVStore>();
  for (Key k = 0; k < n; ++k) image->load(k, "init" + std::to_string(k));
  return image;
}

std::vector<std::uint8_t> encoded(const MVStore& s) {
  util::Writer w;
  s.encode(w);
  return w.data();
}

std::vector<Key> sorted_keys(const MVStore& s) {
  std::vector<Key> keys = s.keys();
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// `layered` answers every read, counts and encodes as `plain` does.
void expect_same_store(const MVStore& layered, const MVStore& plain, Key keys, Version newest) {
  ASSERT_EQ(layered.key_count(), plain.key_count());
  ASSERT_EQ(layered.version_count(), plain.version_count());
  ASSERT_EQ(sorted_keys(layered), sorted_keys(plain));
  ASSERT_EQ(encoded(layered), encoded(plain));
  for (Key k = 0; k < keys; ++k) {
    for (Version st = 0; st <= newest; st += 3) {
      const auto a = layered.get(k, st);
      const auto b = plain.get(k, st);
      ASSERT_EQ(a.has_value(), b.has_value()) << "key " << k << " snapshot " << st;
      if (a) {
        ASSERT_EQ(a->version, b->version) << "key " << k << " snapshot " << st;
        ASSERT_EQ(a->value, b->value) << "key " << k << " snapshot " << st;
      }
    }
    const auto* a = layered.versions_of(k);
    const auto* b = plain.versions_of(k);
    ASSERT_EQ(a == nullptr, b == nullptr) << "key " << k;
    if (a != nullptr) {
      ASSERT_EQ(a->size(), b->size()) << "key " << k;
    }
  }
}

// The same loads and the same random mutations, one store over an image
// and one plain: every read, count and checkpoint byte agrees throughout,
// through copy-on-write, same-version overwrites of loads, GC of version 0,
// and rollbacks that fall back to the image or erase a collected key.
TEST(MVStoreImage, AnswersLikeAPlainStoreUnderRandomMutations) {
  constexpr Key kLoaded = 48;
  constexpr Key kKeys = 64;  // keys >= kLoaded exist only once written
  const auto image = image_of(kLoaded);
  MVStore layered(image);
  MVStore plain;
  for (Key k = 0; k < kLoaded; ++k) plain.load(k, "init" + std::to_string(k));
  ASSERT_NO_FATAL_FAILURE(expect_same_store(layered, plain, kKeys, 0));

  // Loaded keys the layered store reads straight from the image.
  const auto on_image = [&] {
    std::size_t n = 0;
    for (Key k = 0; k < kLoaded; ++k) n += layered.versions_of(k) == image->versions_of(k);
    return n;
  };
  const auto below = [](util::Rng& rng, Version bound) {
    return static_cast<Version>(rng.below(static_cast<std::uint64_t>(bound)));
  };
  util::Rng rng(11);
  Version newest = 0;
  std::size_t fallbacks = 0, erased_steps = 0;
  for (int step = 0; step < 3000; ++step) {
    const Key k = rng.below(kKeys);
    const std::string value = "s" + std::to_string(step);
    switch (rng.below(16)) {
      case 0:  // roll back to a random horizon, often to the initial load
      case 1: {
        const Version horizon = rng.below(2) == 0 ? 0 : below(rng, newest + 1);
        const std::size_t before = on_image();
        layered.truncate_above(horizon);
        plain.truncate_above(horizon);
        fallbacks += on_image() - before;
        break;
      }
      case 2: {
        const Version horizon = below(rng, newest + 1);
        layered.gc(horizon);
        plain.gc(horizon);
        break;
      }
      case 3: {  // a same-version overwrite of the load, where legal
        const auto latest = plain.get_latest(k);
        if (latest && latest->version != 0) break;
        layered.put(k, value, 0);
        plain.put(k, value, 0);
        break;
      }
      case 4:
      case 5: {
        const Version v = below(rng, newest + 1);
        layered.insert(k, value, v);
        plain.insert(k, value, v);
        break;
      }
      default:
        newest += below(rng, 2);
        layered.put(k, value, newest);
        plain.put(k, value, newest);
        break;
    }
    if (k < kLoaded && plain.versions_of(k) == nullptr) ++erased_steps;
    if (step % 50 == 0) {
      ASSERT_NO_FATAL_FAILURE(expect_same_store(layered, plain, kKeys, newest + 1));
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_same_store(layered, plain, kKeys, newest + 1));
  EXPECT_GT(fallbacks, 0u) << "no rollback fell back to the image";
  EXPECT_GT(erased_steps, 0u) << "no loaded key was erased by GC then rollback";
  EXPECT_EQ(image->version_count(), kLoaded) << "the image is never written";
}

// Two stores over one image diverge per key; the image stays as loaded,
// and an unwritten key reads the image's own bytes in both.
TEST(MVStoreImage, StoresOverOneImageDivergePerKey) {
  const auto image = image_of(8);
  const std::vector<std::uint8_t> before = encoded(*image);
  MVStore a(image);
  MVStore b(image);
  a.put(1, "a1", 1);
  b.put(2, "b2", 1);
  b.put(1, "b1", 2);
  a.insert(9, "new", 1);

  EXPECT_EQ(a.get_latest(1)->value, "a1");
  EXPECT_EQ(b.get_latest(1)->value, "b1");
  EXPECT_EQ(a.get_latest(2)->value, "init2");
  EXPECT_EQ(b.get_latest(2)->value, "b2");
  EXPECT_EQ(a.get(1, 0)->value, "init1") << "the written key keeps its load below";
  EXPECT_EQ(a.key_count(), 9u);
  EXPECT_EQ(b.key_count(), 8u);
  EXPECT_EQ(a.own_key_count(), 2u);
  EXPECT_EQ(encoded(*image), before);
  EXPECT_EQ(image->get_latest(1)->value, "init1");

  // Copy-on-write views the image's bytes rather than copying them.
  const char* bytes = image->versions_of(1)->front().value.data();
  EXPECT_EQ(a.versions_of(1)->front().value.data(), bytes);
  EXPECT_EQ(b.versions_of(1)->front().value.data(), bytes);
  EXPECT_EQ(a.versions_of(5)->front().value.data(), image->versions_of(5)->front().value.data());
  EXPECT_EQ(a.arena_bytes(), b.arena_bytes()) << "own arenas hold only their writes";
}

// Recovery's rollback to the initial load leaves an unwritten key's chain,
// and a written one's, as the image's own chain: the own layer is empty.
TEST(MVStoreImage, TruncateToZeroFallsBackToTheImage) {
  const auto image = image_of(4);
  MVStore s(image);
  s.put(1, "v1", 1);
  s.put(1, "v2", 2);
  s.put(7, "new", 2);
  s.gc(2);  // key 1 keeps v2 only; its load stays in the image
  s.put(2, "v3", 3);
  s.truncate_above(0);
  for (Key k = 0; k < 4; ++k) {
    if (k == 1) continue;
    EXPECT_EQ(s.versions_of(k), image->versions_of(k)) << "key " << k;
  }
  EXPECT_EQ(s.versions_of(1), nullptr) << "GC collected key 1's load; rollback erases it";
  EXPECT_EQ(s.versions_of(7), nullptr);
  EXPECT_EQ(s.own_key_count(), 0u);
  EXPECT_EQ(s.key_count(), 3u);
  EXPECT_EQ(s.arena_bytes(), 0u) << "compaction copies no image bytes";
  s.put(1, "reborn", 4);
  EXPECT_EQ(s.versions_of(1)->size(), 1u) << "an erased key is written afresh";
  EXPECT_EQ(s.get_latest(1)->value, "reborn");
}

TEST(MVStoreImage, InstallDropsTheImage) {
  const auto image = image_of(4);
  MVStore s(image);
  s.put(1, "v1", 1);
  const std::vector<std::uint8_t> blob = encoded(s);

  MVStore t(image);
  util::Reader r(blob);
  t.install(r);
  EXPECT_EQ(t.image(), nullptr);
  EXPECT_EQ(t.own_key_count(), 4u);
  EXPECT_NE(t.versions_of(2)->front().value.data(), image->versions_of(2)->front().value.data());
  EXPECT_EQ(encoded(t), blob);
  t.truncate_above(0);
  EXPECT_EQ(t.get_latest(1)->value, "init1") << "the installed load is the rollback target";
}

TEST(MVStoreImage, RejectsAnImageWithWrites) {
  auto image = std::make_shared<MVStore>();
  image->load(1, "a");
  image->put(1, "b", 1);
  EXPECT_THROW(MVStore{image}, std::invalid_argument);
  EXPECT_THROW(MVStore{std::make_shared<const MVStore>(image_of(2))}, std::invalid_argument)
      << "an image has no image of its own";
}

}  // namespace
}  // namespace sdur::storage

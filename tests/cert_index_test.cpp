// Indexed certification: equivalence of the per-key index with the legacy
// window scan, across every mode the engine supports.
//
//  * CertIndex units: last-writer/last-reader tracking, eviction erasing
//    exactly the entries whose newest owner left the window.
//  * Randomized property over the one certification window
//    (storage::CommitWindow): for exact, bloom and mixed readsets (write
//    sets are always exact) the window answers every probe exactly like a
//    brute-force reference — indexed, scanned, and through the audited
//    conflicts() — under eviction and clear()+reinsert rebuilds; and a
//    Certifier at 1, 4 and 8 P-DUR cores certifies exactly what the
//    reference decides.
//  * Certifier chaos: a continuously-running certifier and one that is
//    round-tripped through encode()/install() (index rebuilt from the
//    checkpoint) stay verdict-identical; the in-place audit cross-check
//    ("index-scan-equivalence") watches every single verdict.
//  * Read frontier: the certifier's unresolved-writer index matches a
//    model scan under out-of-order resolution and install, and a value
//    served at a key's frontier never changes afterwards.
//  * Golden digest: an end-to-end simulated run (serial+bloom and P-DUR
//    multi-core) digests replica state against pinned constants — the
//    indexed engine must not change any simulated result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string_view>
#include <vector>

#include "audit/auditor.h"
#include "pdur/core_partitioner.h"
#include "sdur/certifier.h"
#include "storage/cert_index.h"
#include "storage/commit_window.h"
#include "workload/scenario.h"

namespace sdur::storage {
namespace {

util::KeySet exact(std::vector<std::uint64_t> ks) { return util::KeySet::exact(std::move(ks)); }

TEST(CertIndex, TracksLastWriterAndReader) {
  CertIndex idx;
  idx.insert(1, exact({1, 2}), exact({2}));
  idx.insert(2, exact({3}), exact({1}));

  // Key 2 written at 1: conflicts with snapshots older than 1 only.
  EXPECT_TRUE(idx.reads_conflict(exact({2}), 0));
  EXPECT_FALSE(idx.reads_conflict(exact({2}), 1));
  // Key 1 written at 2 (the read of key 1 at version 1 is tracked apart).
  EXPECT_TRUE(idx.reads_conflict(exact({1}), 1));
  EXPECT_FALSE(idx.reads_conflict(exact({9}), 0));
  // Reader side: key 3 read at version 2, key 1 read at version 1.
  EXPECT_TRUE(idx.writes_conflict(exact({3}), 1));
  EXPECT_TRUE(idx.writes_conflict(exact({1}), 0));
  EXPECT_FALSE(idx.writes_conflict(exact({1}), 1));
}

TEST(CertIndex, EvictionErasesOnlyNewestOwner) {
  CertIndex idx;
  idx.insert(1, exact({}), exact({7}));
  idx.insert(2, exact({}), exact({7}));
  // Version 1 leaves the window, but version 2 still writes key 7.
  idx.evict(1, exact({}), exact({7}));
  EXPECT_TRUE(idx.reads_conflict(exact({7}), 1));
  idx.evict(2, exact({}), exact({7}));
  EXPECT_FALSE(idx.reads_conflict(exact({7}), 0));
  EXPECT_EQ(idx.key_count(), 0u);
}

TEST(CertIndex, BloomRecordsLandInTheSuffixLists) {
  CertIndex idx;
  idx.insert(1, util::KeySet::bloom({1, 2}), exact({3}));
  idx.insert(2, exact({4}), exact({5}));
  ASSERT_EQ(idx.bloom_read_versions().size(), 1u);
  EXPECT_EQ(idx.bloom_read_versions().front(), 1);
  idx.evict(1, util::KeySet::bloom({1, 2}), exact({3}));
  EXPECT_TRUE(idx.bloom_read_versions().empty());
}

enum class Mode { kExact, kBloom, kMixed };

util::KeySet make_set(std::mt19937_64& rng, Mode mode, std::uint64_t key_space,
                      std::size_t max_size, bool force_exact = false) {
  std::uniform_int_distribution<std::size_t> size_dist(0, max_size);
  std::uniform_int_distribution<std::uint64_t> key_dist(0, key_space - 1);
  std::vector<std::uint64_t> ks(size_dist(rng));
  for (auto& k : ks) k = key_dist(rng);
  const bool bloom = !force_exact && (mode == Mode::kBloom ||
                                      (mode == Mode::kMixed && (rng() & 1) != 0));
  // Match the server: bloom sets are only ever built for non-empty keysets
  // worth encoding; tiny fp rate keeps the property non-vacuous.
  if (bloom && !ks.empty()) return util::KeySet::bloom(ks, 0.01);
  return util::KeySet::exact(std::move(ks));
}

}  // namespace
}  // namespace sdur::storage

namespace sdur {
namespace {

PartTx random_tx(std::mt19937_64& rng, TxId id, storage::Mode mode, std::uint64_t key_space,
                 Version snapshot) {
  PartTx t;
  t.kind = PartTx::Kind::kTxn;
  t.id = id;
  t.involved = (rng() & 1) != 0 ? std::vector<PartitionId>{0, 1} : std::vector<PartitionId>{0};
  t.snapshot = snapshot;
  t.readset = storage::make_set(rng, mode, key_space, 5);
  t.write_keys = storage::make_set(rng, mode, key_space, 5, /*force_exact=*/true);
  return t;
}

/// Brute-force reference: the full (unprojected) sets of every record.
struct RefRecord {
  Version version;
  util::KeySet rs;
  util::KeySet ws;
};

bool reference_conflict(const std::vector<RefRecord>& recs, const util::KeySet& rs,
                        const util::KeySet& ws, bool global, Version st) {
  for (const RefRecord& r : recs) {
    if (r.version <= st) continue;
    if (rs.intersects(r.ws)) return true;
    if (global && ws.intersects(r.rs)) return true;
  }
  return false;
}

/// One window, every way it is used: the window must answer every probe
/// exactly like the brute-force reference, whichever strategy serves it;
/// and a Certifier built on it, at 1, 4 or 8 P-DUR cores, must certify
/// exactly what the reference decides.
class CommitWindowProperty : public ::testing::TestWithParam<storage::Mode> {};

TEST_P(CommitWindowProperty, IndexedVerdictEqualsScanVerdict) {
  const storage::Mode mode = GetParam();
  audit::Auditor::instance().reset();
  for (const pdur::CoreId cores : {1u, 4u, 8u}) {
    std::mt19937_64 rng(0xC0FFEE ^ static_cast<std::uint64_t>(mode) ^ (cores << 8));
    storage::CommitWindow full;
    std::vector<RefRecord> recs;  // exactly the records the window holds
    auto push = [&](const RefRecord& r) {
      full.push(r.version, storage::CommitRecord{0, false, storage::CommitStatus::kPending,
                                                 r.rs, r.ws});
    };

    constexpr std::uint64_t kKeySpace = 96;  // small: plenty of collisions
    Version next = 1;
    for (int round = 0; round < 400; ++round) {
      recs.push_back(RefRecord{next++, storage::make_set(rng, mode, kKeySpace, 6),
                               storage::make_set(rng, storage::Mode::kExact, kKeySpace, 6)});
      push(recs.back());
      if (recs.size() > 48) {  // eviction pressure after 48 pushes
        const Version base = recs.front().version + 1;
        full.evict_below(base);
        recs.erase(recs.begin());
      }
      if (round % 97 == 96) {  // checkpoint-install rebuild: clear + reinsert
        const Version base = full.base();
        full.clear(base);
        for (const RefRecord& r : recs) push(r);
      }
      ASSERT_EQ(full.size(), recs.size());

      // Probe with snapshots across the whole covered range, including the
      // exact window base and the empty suffix at newest.
      for (int probe = 0; probe < 6; ++probe) {
        const util::KeySet rs = storage::make_set(rng, mode, kKeySpace, 6);
        const util::KeySet ws = storage::make_set(rng, storage::Mode::kExact, kKeySpace, 6);
        const bool global = (rng() & 1) != 0;
        std::uniform_int_distribution<Version> st_dist(full.base() - 1, full.newest());
        const Version st = st_dist(rng);
        ASSERT_TRUE(full.covers(st));
        const bool want = reference_conflict(recs, rs, ws, global, st);
        const auto where = [&] {
          return ::testing::Message() << "cores=" << cores << " mode=" << static_cast<int>(mode)
                                      << " round=" << round << " st=" << st
                                      << " global=" << global;
        };
        ASSERT_EQ(full.conflicts_scan(rs, ws, global, st), want) << where();
        ASSERT_EQ(full.conflicts_indexed(rs, ws, global, st), want) << where();
        ASSERT_EQ(full.conflicts(rs, ws, global, st), want) << where();
      }
    }

    // Certifier level: the same core count certifies exactly what the
    // reference decides over every version it assigned.
    Certifier cert(32, cores);
    std::vector<RefRecord> certified;
    std::uint64_t dc = 0;
    for (int round = 0; round < 300; ++round) {
      ++dc;
      std::uniform_int_distribution<Version> st_dist(
          std::max<Version>(0, cert.certified() - 40), cert.certified());
      const PartTx t = random_tx(rng, dc, mode, 64, st_dist(rng));
      const bool covered = cert.covers(t.snapshot);
      const bool conflict =
          reference_conflict(certified, t.readset, t.write_keys, t.is_global(), t.snapshot);
      const auto res = cert.process(t, dc, dc);
      ASSERT_EQ(res.stale_snapshot, !covered) << "cores=" << cores << " round=" << round;
      ASSERT_EQ(res.outcome == Outcome::kCommit, covered && !conflict)
          << "cores=" << cores << " mode=" << static_cast<int>(mode) << " round=" << round;
      if (res.outcome == Outcome::kCommit) {
        certified.push_back(RefRecord{res.version, t.readset, t.write_keys});
      }
      while (!cert.empty() && (rng() & 3) == 0) cert.resolve(cert.pop_head(), (rng() & 1) != 0);
    }
  }
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
}

INSTANTIATE_TEST_SUITE_P(Modes, CommitWindowProperty,
                         ::testing::Values(storage::Mode::kExact, storage::Mode::kBloom,
                                           storage::Mode::kMixed),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case storage::Mode::kExact: return "exact";
                             case storage::Mode::kBloom: return "bloom";
                             default: return "mixed";
                           }
                         });

/// A continuously-running certifier and one round-tripped through
/// encode()/install() after every burst must issue identical verdicts for
/// identical deliveries — the install path rebuilds the key index from the
/// checkpointed slots. The in-place "index-scan-equivalence" audit check
/// watches every verdict of both.
TEST(CertifierIndex, InstallRebuildKeepsVerdicts) {
  audit::Auditor::instance().reset();
  for (const storage::Mode mode :
       {storage::Mode::kExact, storage::Mode::kBloom, storage::Mode::kMixed}) {
    std::mt19937_64 rng(0xBEEF ^ static_cast<std::uint64_t>(mode));
    Certifier live(32);
    Certifier reinstalled(32);
    std::uint64_t dc = 0;
    for (int round = 0; round < 400; ++round) {
      ++dc;
      std::uniform_int_distribution<Version> st_dist(
          std::max<Version>(0, live.certified() - 40), live.certified());
      const PartTx t = random_tx(rng, dc, mode, 64, st_dist(rng));
      const auto a = live.process(t, dc, dc);
      const auto b = reinstalled.process(t, dc, dc);
      ASSERT_EQ(a.outcome, b.outcome) << "round " << round;
      ASSERT_EQ(a.version, b.version);
      ASSERT_EQ(a.stale_snapshot, b.stale_snapshot);
      // Resolve a random prefix so eviction happens on both sides.
      while (!live.empty() && (rng() & 3) == 0) {
        const bool committed = (rng() & 1) != 0;
        live.resolve(live.pop_head(), committed);
        reinstalled.resolve(reinstalled.pop_head(), committed);
      }
      if (round % 37 == 0) {
        util::Writer w;
        reinstalled.encode(w);
        util::Reader r(w.data());
        reinstalled.install(r);
      }
    }
  }
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
}

/// Read frontier: over random certify, out-of-order resolve (bypass,
/// speculate then commit/abort) and install sequences, the indexed
/// frontier equals a scan of an independent model of every certified
/// slot, and a value served at its frontier never changes afterwards (no
/// writer of the key at or below the frontier was still unresolved). The
/// in-place "read-frontier-equivalence" audit watches every probe too.
TEST(CertifierReadFrontier, IndexMatchesModelAndServedValuesStayFinal) {
  audit::Auditor::instance().reset();
  struct Config {
    storage::Mode mode;
    std::uint32_t cores;
    bool bypass;
  };
  const Config configs[] = {{storage::Mode::kExact, 1, false}, {storage::Mode::kMixed, 1, false},
                            {storage::Mode::kExact, 1, true},  {storage::Mode::kExact, 4, false},
                            {storage::Mode::kMixed, 4, true}};
  for (const Config& c : configs) {
    std::mt19937_64 rng(0xF00D ^ (static_cast<std::uint64_t>(c.mode) << 4) ^ c.cores ^
                        (c.bypass ? 0x100 : 0));
    Certifier cert(32, c.cores, c.bypass);
    enum class St { kPending, kCommitted, kAborted };
    struct ModelSlot {
      util::KeySet ws;
      St status = St::kPending;
    };
    std::map<Version, ModelSlot> model;  // every slot ever certified
    std::vector<std::pair<Version, TxId>> speculated;  // detached, unresolved
    struct Served {
      Key key;
      Version at;
      Version writer;  // newest committed writer of `key` at or below `at`
    };
    std::vector<Served> served;

    auto writer_at = [&](Key k, Version at) {
      Version w = 0;
      for (const auto& [v, s] : model) {
        if (v > at) break;
        if (s.status == St::kCommitted && s.ws.may_contain(k)) w = v;
      }
      return w;
    };
    auto model_frontier = [&](Key k) {
      for (const auto& [v, s] : model) {
        if (s.status == St::kPending && s.ws.may_contain(k)) return v - 1;
      }
      return cert.certified();
    };
    auto resolve = [&](Version v, TxId id, bool committed) {
      cert.resolve(v, id, committed);
      model[v].status = committed ? St::kCommitted : St::kAborted;
    };

    std::uint64_t dc = 0;
    for (int round = 0; round < 400; ++round) {
      ++dc;
      std::uniform_int_distribution<Version> st_dist(cert.stable(), cert.certified());
      const PartTx t = random_tx(rng, dc, c.mode, 48, st_dist(rng));
      const auto res = cert.process(t, dc + rng() % 3, dc);
      if (res.outcome == Outcome::kCommit) model[res.version] = ModelSlot{t.write_keys};

      for (int step = static_cast<int>(rng() % 3); step > 0; --step) {
        switch (rng() % 4) {
          case 0:  // in-order completion at the head
            if (!cert.empty()) {
              const PendingEntry e = cert.pop_head();
              resolve(e.version, e.tx.id, (rng() & 3) != 0);
            }
            break;
          case 1:  // speculate a head global: unresolved, off the list
            if (!cert.empty() && cert.head().tx.is_global()) {
              const PendingEntry e = cert.pop_head();
              speculated.emplace_back(e.version, e.tx.id);
            }
            break;
          case 2: {  // out-of-order commit past the head
            std::size_t pos = Certifier::npos;
            if (c.bypass) {
              pos = cert.next_bypassable(0);
            } else if (!cert.empty()) {
              pos = static_cast<std::size_t>(rng() % cert.size());
            }
            if (pos != Certifier::npos) {
              const PendingEntry e = cert.take_at(pos);
              resolve(e.version, e.tx.id, true);
            }
            break;
          }
          default:  // commit or abort any speculation
            if (!speculated.empty()) {
              const std::size_t i = static_cast<std::size_t>(rng() % speculated.size());
              const auto [v, id] = speculated[i];
              speculated.erase(speculated.begin() + static_cast<std::ptrdiff_t>(i));
              resolve(v, id, (rng() & 1) != 0);
            }
            break;
        }
      }
      if (round % 41 == 40) {  // checkpoint install rebuilds the index
        util::Writer w;
        cert.encode(w);
        util::Reader r(w.data());
        cert.install(r);
      }

      for (int probe = 0; probe < 4; ++probe) {
        const Key k = rng() % 48;
        const Version f = cert.read_frontier(k);
        ASSERT_EQ(f, model_frontier(k)) << "round " << round << " key " << k;
        ASSERT_GE(f, cert.stable());
        ASSERT_LE(f, cert.certified());
        served.push_back(Served{k, f, writer_at(k, f)});
      }
      // Re-check the most recent reads (older ones had the same chance).
      if (served.size() > 64) served.erase(served.begin(), served.end() - 64);
      for (const Served& s : served) {
        ASSERT_EQ(writer_at(s.key, s.at), s.writer)
            << "key " << s.key << " served at " << s.at << " changed by round " << round;
      }
    }
  }
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
}

}  // namespace
}  // namespace sdur

namespace sdur::workload {
namespace {

/// Digest of all deterministic replica state after a fixed-seed run: the
/// indexed certification engine must leave every simulated result
/// bit-identical to the scan engine it replaced. The pinned runs execute
/// with the audit layer cross-checking every single verdict against the
/// legacy scan in place (and assert the auditor stayed clean), so these
/// constants are — by construction — exactly what the scan engine
/// produces. A change here means a verdict moved somewhere. Re-pinned once
/// when reads moved from the stable prefix to the per-key read frontier
/// (fresher snapshots, so different verdicts — by design).
std::uint64_t run_digest(bool bloom, std::uint32_t cores) {
  Scenario sc;
  sc.spec.partitions = 2;
  sc.spec.server.techniques.reorder_threshold = 24;
  sc.spec.server.techniques.bloom_readsets = bloom;
  // High fp rate so bloom false positives actually fire at this scale —
  // the run must diverge from the exact run through the bloom fallback
  // paths, not coincide with it.
  if (bloom) sc.spec.server.techniques.bloom_fp_rate = 0.02;
  sc.spec.server.pdur.cores = cores;
  sc.spec.seed = 47;
  sc.run = {.clients = 12, .warmup = sim::msec(300), .measure = sim::msec(1500), .seed = 47};
  sc.micro = {.items_per_partition = 80, .global_fraction = 0.25};
  return state_digest(*run_scenario(sc).dep);
}

TEST(CertIndexGolden, EndToEndResultsUnchanged) {
  EXPECT_TRUE(audit::Auditor::instance().clean());
  const std::uint64_t exact_serial = run_digest(false, 1);
  const std::uint64_t bloom_serial = run_digest(true, 1);
  const std::uint64_t exact_pdur4 = run_digest(false, 4);
  const std::uint64_t bloom_pdur4 = run_digest(true, 4);
  EXPECT_EQ(exact_serial, 0xd464f07d06ccad4dULL)
      << "exact/serial digest changed: 0x" << std::hex << exact_serial;
  EXPECT_EQ(bloom_serial, 0xc395a981726d3b66ULL)
      << "bloom/serial digest changed: 0x" << std::hex << bloom_serial;
  EXPECT_EQ(exact_pdur4, 0x5a1fd490fd5f393aULL)
      << "exact/pdur4 digest changed: 0x" << std::hex << exact_pdur4;
  EXPECT_EQ(bloom_pdur4, 0xfd014a9d13fc08e0ULL)
      << "bloom/pdur4 digest changed: 0x" << std::hex << bloom_pdur4;
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
}

}  // namespace
}  // namespace sdur::workload

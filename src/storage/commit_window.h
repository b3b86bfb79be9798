// Certification window: the recent certified-transaction list "DB" of
// Algorithm 2, and the one structure every certification runs against.
//
// Certifying a delivered transaction t compares it against every record
// serialized after t's snapshot (DB[t.st..SC]). Records store both the
// readset (exact or bloom KeySet) and the writeset (always exact: push
// rejects a bloom one): local certification needs the writesets, global
// certification additionally intersects against the readsets (Section
// III-B).
//
// USERS. sdur::Certifier keeps one window whose records carry its slot
// metadata (txid, global, status), one record per assigned version. Every
// certification runs against it, serial or P-DUR (arXiv:1312.0742: the
// per-core split of the check is only a simulated cost). Versions are
// contiguous — push() throws on a gap, and the Certifier audits it
// ("window-contiguous") — so a lookup by version is one subtraction.
//
// BASE. base() is the window's floor: every record has version >= base,
// and every record pushed below it was evicted. covers(st) asks whether a
// snapshot st still sees every record serialized after it.
//
// CONFLICT CHECKS. conflicts() answers the certification question through
// the per-key CertIndex (storage/cert_index.h) — O(|rs| + |ws|) probes
// plus a scan of only the records with a bloom-encoded readset — with an
// SDUR_AUDIT cross-check against the reference full scan,
// conflicts_scan(). conflicts_indexed() exposes the indexed strategy alone
// for bench/cert_perf.
#pragma once

#include <cstdint>
#include <deque>

#include "audit/audit.h"
#include "storage/cert_index.h"
#include "storage/mvstore.h"
#include "util/bloom.h"

namespace sdur::storage {

/// Resolution state of a certified transaction (only the Certifier's
/// full-set window tracks it).
enum class CommitStatus : std::uint8_t { kPending = 0, kCommitted = 1, kAborted = 2 };

struct CommitRecord {
  std::uint64_t txid = 0;
  bool global = false;
  CommitStatus status = CommitStatus::kPending;
  util::KeySet readset;
  util::KeySet writeset;
};

class CommitWindow {
 public:
  explicit CommitWindow(Version base = 0) : base_(base) {}

  /// Appends the record serialized at `version`, which must be newest()+1
  /// (on an empty window: any version >= base()); any other push throws
  /// std::logic_error. A bloom-encoded writeset throws
  /// std::invalid_argument: the key index holds every writeset exactly.
  void push(Version version, CommitRecord rec);

  /// Drops every record with version < `base` and raises base() to it (a
  /// lower `base` is a no-op).
  void evict_below(Version base);

  /// Drops every record and resets the base (checkpoint install).
  void clear(Version base);

  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }
  Version base() const { return base_; }
  /// Oldest / newest record versions (0 if empty).
  Version oldest() const { return empty() ? 0 : records_.front().version; }
  Version newest() const { return empty() ? 0 : records_.back().version; }

  /// True if a transaction with snapshot `st` can still be certified: no
  /// record serialized after `st` was evicted. Written without `st + 1` so
  /// st == INT64_MAX cannot overflow.
  bool covers(Version st) const { return st >= base_ - 1; }

  /// The record at `version`, or nullptr if the window holds none there.
  const CommitRecord* find(Version version) const;
  /// Sets the status of the record at `version` (which must exist).
  void set_status(Version version, CommitStatus status);

  /// Invokes `fn(version, record)` for every record with version > st in
  /// ascending order, stopping early if `fn` returns false. Returns false
  /// if it stopped early, true otherwise. Precondition: covers(st) —
  /// violating it is an audit violation (the evicted records are silently
  /// exempt from the scan).
  template <typename Fn>
  bool scan_after(Version st, Fn&& fn) const {
    if (empty() || st >= newest()) return true;
    SDUR_AUDIT_CHECK("storage", "scan-covers-precondition", covers(st),
                     "scan_after(st=" << st << ") predates window base " << base_
                                      << ": evicted commits are exempt from this scan");
    // st < newest <= INT64_MAX, so st + 1 cannot overflow here.
    const auto from = records_.begin() + static_cast<std::ptrdiff_t>(lower_index(st + 1));
    for (auto it = from; it != records_.end(); ++it) {
      if (!fn(it->version, it->rec)) return false;
    }
    return true;
  }

  /// Certification conflict check for a transaction with readset `rs`,
  /// writeset `ws` and snapshot `st`: true iff some record with version
  /// > st wrote a key in `rs`, or — for a global transaction — read a key
  /// in `ws` (Section III-B). Indexed; audit builds cross-check the verdict
  /// against conflicts_scan(). Precondition: covers(st).
  bool conflicts(const util::KeySet& rs, const util::KeySet& ws, bool global, Version st) const;

  /// The reference strategy: a full scan of the records after `st`.
  bool conflicts_scan(const util::KeySet& rs, const util::KeySet& ws, bool global,
                      Version st) const;

  /// The indexed strategy: key probes plus a scan over only the records
  /// with a bloom-encoded readset (bit-identical verdict to
  /// conflicts_scan).
  bool conflicts_indexed(const util::KeySet& rs, const util::KeySet& ws, bool global,
                         Version st) const;

  /// True when a probe set cannot drive key probes (a non-empty bloom
  /// set), so its component of the check falls back to the window scan.
  static bool scans(const util::KeySet& probe) { return probe.is_bloom() && !probe.empty(); }

  const CertIndex& index() const { return index_; }

 private:
  struct Entry {
    Version version = 0;
    CommitRecord rec;
  };

  /// Index of the first record with version >= `v` (size() if none).
  std::size_t lower_index(Version v) const;
  /// The record at `v`, which must exist.
  const CommitRecord& at(Version v) const { return records_[lower_index(v)].rec; }

  std::deque<Entry> records_;  // contiguous versions, ascending
  Version base_;
  CertIndex index_;
};

}  // namespace sdur::storage

#include "storage/commit_window.h"

#include <algorithm>
#include <stdexcept>

namespace sdur::storage {

void CommitWindow::push(Version version, CommitRecord rec) {
  // A gap or an out-of-order push would break every version-ordered
  // structure here (the index, the bloom suffix lists, the O(1) lookup by
  // version); a record below the base would be evicted history reappearing.
  if (empty() ? version < base_ : version != newest() + 1) {
    throw std::logic_error("CommitWindow::push: versions must be contiguous");
  }
  index_.insert(version, rec.readset, rec.writeset);
  records_.push_back(Entry{version, std::move(rec)});
}

void CommitWindow::evict_below(Version base) {
  if (base <= base_) return;
  base_ = base;
  while (!empty() && records_.front().version < base_) {
    const Entry& e = records_.front();
    index_.evict(e.version, e.rec.readset, e.rec.writeset);
    records_.pop_front();
  }
}

void CommitWindow::clear(Version base) {
  records_.clear();
  index_.clear();
  base_ = base;
}

std::size_t CommitWindow::lower_index(Version v) const {
  if (empty() || v <= oldest()) return 0;
  if (v > newest()) return records_.size();
  return static_cast<std::size_t>(v - oldest());  // contiguous: v sits right there
}

const CommitRecord* CommitWindow::find(Version version) const {
  const std::size_t i = lower_index(version);
  if (i == records_.size() || records_[i].version != version) return nullptr;
  return &records_[i].rec;
}

void CommitWindow::set_status(Version version, CommitStatus status) {
  records_[lower_index(version)].rec.status = status;
}

bool CommitWindow::conflicts(const util::KeySet& rs, const util::KeySet& ws, bool global,
                             Version st) const {
  const bool indexed = conflicts_indexed(rs, ws, global, st);
  // The index must reproduce the scan verdict bit for bit — same boolean
  // on every delivery, or replicas running different strategies would
  // diverge.
  SDUR_AUDIT_CHECK("storage", "index-scan-equivalence",
                   indexed == conflicts_scan(rs, ws, global, st),
                   "indexed certification verdict " << (indexed ? "conflict" : "clear")
                                                    << " diverges from window scan (st=" << st
                                                    << ", window [" << oldest() << ", "
                                                    << newest() << "])");
  return indexed;
}

bool CommitWindow::conflicts_scan(const util::KeySet& rs, const util::KeySet& ws, bool global,
                                  Version st) const {
  // ctest(t, t') (Algorithm 2, lines 46-47): t must not have read anything
  // a later-serialized transaction wrote; a global t must additionally not
  // write anything a later-serialized transaction read, so that
  // cross-partition delivery orders cannot matter (Section III-B).
  return !scan_after(st, [&](Version, const CommitRecord& r) {
    return !(rs.intersects(r.writeset) || (global && ws.intersects(r.readset)));
  });
}

bool CommitWindow::conflicts_indexed(const util::KeySet& rs, const util::KeySet& ws, bool global,
                                     Version st) const {
  if (empty() || st >= newest()) return false;
  // Hit test of one component against the records after st: a bloom probe
  // set scans them all; an exact one probes the key index (`probed`) and
  // scans only the records whose set the index cannot hold (`bloom`).
  const auto component = [&](const util::KeySet& probe, auto probed,
                             const std::deque<Version>& bloom, auto hit) {
    if (scans(probe)) {
      return !scan_after(st, [&](Version, const CommitRecord& r) { return !hit(r); });
    }
    if (probed()) return true;
    for (auto it = std::upper_bound(bloom.begin(), bloom.end(), st); it != bloom.end(); ++it) {
      if (hit(at(*it))) return true;
    }
    return false;
  };
  // Component A: rs vs the writesets.
  if (component(
          rs, [&] { return index_.reads_conflict(rs, st); }, index_.bloom_write_versions(),
          [&](const CommitRecord& r) { return rs.intersects(r.writeset); })) {
    return true;
  }
  if (!global) return false;
  // Component B: ws vs the readsets (global transactions only).
  return component(
      ws, [&] { return index_.writes_conflict(ws, st); }, index_.bloom_read_versions(),
      [&](const CommitRecord& r) { return ws.intersects(r.readset); });
}

// --- Pending writes -------------------------------------------------------------

void CommitWindow::pending_insert(Version v, const util::KeySet& write_keys) {
  pending_.insert(v, util::KeySet(), write_keys);
}

void CommitWindow::pending_evict(Version v, const util::KeySet& write_keys) {
  pending_.evict(v, util::KeySet(), write_keys);
}

void CommitWindow::pending_clear() { pending_.clear(); }

bool CommitWindow::pending_conflicts(const util::KeySet& rs, const util::KeySet& ws) const {
  // Snapshot 0 turns the last-writer probe into an existence probe
  // (versions start at 1). Pending write keys are exact, so the index's
  // bloom suffixes stay empty and no fallback scan is needed.
  return pending_.reads_conflict(rs, 0) || pending_.reads_conflict(ws, 0);
}

}  // namespace sdur::storage
